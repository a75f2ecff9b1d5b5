module Tree = Ctree.Tree
module Evaluator = Analysis.Evaluator
module Domain_pool = Analysis.Domain_pool

type hooks = {
  eval : ?edits:Evaluator.edit_hint -> Tree.t -> Evaluator.t;
  note :
    edits:Evaluator.edit_hint option -> new_revision:int -> unit;
}

(* One speculation lane: a content replica of the main tree plus its own
   incremental session (wrapped in [hooks]). [synced_rev] is the main
   tree's revision the replica content mirrors; -1 marks it stale (an
   exception interrupted a rollback), forcing a full [Tree.assign]
   resync before its next use. *)
type slot = {
  replica : Tree.t;
  s_hooks : hooks;
  mutable synced_rev : int;
}

type t = {
  main : Tree.t;
  main_hooks : hooks;
  slots : slot array; (* [||] = serial mode: candidates run on [main] *)
}

type outcome = { ev : Evaluator.t; journal : Tree.journal }

let create ~width ~main ~main_hooks ~slot_hooks =
  let slots =
    if width <= 1 then [||]
    else
      Array.init width (fun _ ->
          let replica = Tree.copy main in
          { replica; s_hooks = slot_hooks replica;
            synced_rev = Tree.revision main })
  in
  { main; main_hooks; slots }

let serial ~main ~hooks = { main; main_hooks = hooks; slots = [||] }

let main t = t.main
let hooks t = t.main_hooks

let hint_of_journal j =
  if Tree.Journal.value_only j && Tree.Journal.consistent j then
    Some
      { Evaluator.base_revision = Tree.Journal.base_revision j;
        nodes = Tree.Journal.touched j }
  else None

(* Run one candidate on [tree]: journal, apply, evaluate (with the dirty
   hint when the edit qualifies), roll back, and report the rollback to
   the lane's session so its anchor chain stays unbroken. The closed
   journal carries the redo log {!commit} needs. Returns [None] when the
   candidate mutated the tree outside the journal (rollback refused; the
   lane is marked stale and resynced before its next use). *)
let run_candidate tree hooks mark_stale apply =
  let j = Tree.Journal.start tree in
  match
    apply tree;
    let hint = hint_of_journal j in
    let ev = hooks.eval ?edits:hint tree in
    (ev, hint)
  with
  | exception e ->
    let stale =
      try
        Tree.Journal.rollback j;
        false
      with _ ->
        Tree.Journal.abandon j;
        true
    in
    hooks.note ~edits:None ~new_revision:(Tree.revision tree);
    if stale then mark_stale ();
    raise e
  | ev, hint ->
    let post_mut_rev = Tree.revision tree in
    let usable = Tree.Journal.consistent j in
    if usable then begin
      let nodes = Tree.Journal.touched j in
      Tree.Journal.rollback j;
      let edits =
        match hint with
        | Some _ -> Some { Evaluator.base_revision = post_mut_rev; nodes }
        | None -> None
      in
      hooks.note ~edits ~new_revision:(Tree.revision tree);
      Some { ev; journal = j }
    end
    else begin
      Tree.Journal.abandon j;
      hooks.note ~edits:None ~new_revision:(Tree.revision tree);
      mark_stale ();
      None
    end

(* A journal bypass on the main lane cannot be repaired — there is no
   pristine replica to resync from, so the tree stays mutated. Refuse to
   continue rather than corrupt silently. *)
let serial_bypass () =
  invalid_arg
    "Speculate: candidate mutated the main tree outside the journal \
     (route mutations through the public Ctree.Tree mutators)"

let resync t slot =
  if slot.synced_rev <> Tree.revision t.main then begin
    Tree.assign ~dst:slot.replica ~src:t.main;
    slot.s_hooks.note ~edits:None
      ~new_revision:(Tree.revision slot.replica);
    slot.synced_rev <- Tree.revision t.main
  end

(* First-survivor exploration: the winner is the lowest-indexed candidate
   [accept] admits — a pure function of candidate order, so every width
   picks the same winner. Serial mode exploits it by evaluating lazily
   (candidates after the winner never run); parallel lanes evaluate a
   whole batch eagerly and discard the precomputed losers, trading eval
   count for wall-clock.

   [measured] hands every evaluated outcome of the {e deterministic
   prefix} — the candidates the serial lazy scan would also evaluate:
   everything up to and including the winner — back to the caller, in
   index order, on the caller's thread. Losing evaluations become
   surrogate training data instead of pure waste. Eagerly precomputed
   losers {e beyond} the winner exist only at widths > 1, so feeding
   them would make the calibration state width-dependent; they stay
   unfed, keeping the model a pure function of candidate order.

   [lazy_only] forces the serial lazy scan on the main lane even when
   replica lanes exist — the width-independent schedule surrogate
   warm-up rounds need (every width then runs — and measures — exactly
   the width-1 evaluation sequence). *)
let explore_first ?measured ?(lazy_only = false) t candidates ~accept =
  let k = Array.length candidates in
  let result = ref None in
  let feed i o = match measured with Some f -> f i o | None -> () in
  let pool = lazy (Domain_pool.global ()) in
  (* Eager batches only pay off when the pool actually runs them
     concurrently; on a workerless (degraded-to-sequential) pool the lazy
     scan on the main lane is the same winner for strictly fewer
     evaluations. *)
  if
    lazy_only || Array.length t.slots = 0
    || Domain_pool.size (Lazy.force pool) = 0
  then begin
    let i = ref 0 in
    while !result = None && !i < k do
      (match run_candidate t.main t.main_hooks serial_bypass candidates.(!i)
       with
      | Some o ->
        feed !i o;
        if accept o then result := Some (!i, o)
      | None -> ());
      incr i
    done
  end
  else begin
    let pool = Lazy.force pool in
    let batch = Array.length t.slots in
    let start = ref 0 in
    while !result = None && !start < k do
      let count = min batch (k - !start) in
      Array.iter (fun slot -> resync t slot) (Array.sub t.slots 0 count);
      let jobs = Array.init count (fun i -> i) in
      let results =
        Domain_pool.map pool
          (fun i ->
            let slot = t.slots.(i) in
            run_candidate slot.replica slot.s_hooks
              (fun () -> slot.synced_rev <- -1)
              candidates.(!start + i))
          jobs
      in
      Array.iteri
        (fun i r ->
          if !result = None then
            match r with
            | Some o ->
              feed (!start + i) o;
              if accept o then result := Some (!start + i, o)
            | None -> ())
        results;
      start := !start + count
    done
  end;
  !result

(* Replay the winner's redo log onto the main tree and every in-sync
   replica, keeping all lanes content-identical without a single deep
   copy; each lane's session is told exactly which nodes moved. *)
let commit t { journal = j; ev = _ } =
  let apply_to tree hooks =
    let base = Tree.revision tree in
    Tree.Journal.replay j ~onto:tree;
    let edits =
      if Tree.Journal.value_only j then
        Some
          { Evaluator.base_revision = base;
            nodes = Tree.Journal.touched j }
      else None
    in
    hooks.note ~edits ~new_revision:(Tree.revision tree)
  in
  apply_to t.main t.main_hooks;
  Array.iter
    (fun slot ->
      if slot.synced_rev >= 0 then begin
        apply_to slot.replica slot.s_hooks;
        slot.synced_rev <- Tree.revision t.main
      end)
    t.slots

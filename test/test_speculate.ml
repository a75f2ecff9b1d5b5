(* Journaled tree edits + speculative candidate search (the machinery
   behind Ivc.speculate): rollback exactness against a Tree.copy
   oracle, redo-replay, dirty-hint classification, the no-copy guarantee
   of the journaled attempt path, the incremental dirty-set fast path,
   and the width-independence (determinism) of the speculative flow. *)

open Geometry
module Tree = Ctree.Tree
module Ev = Analysis.Evaluator

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_near tol = Alcotest.(check (float tol))

let tech = Tech.default45 ()
let config = { Core.Config.default with Core.Config.max_rounds = 30 }

let random_sinks seed n span =
  let rng = Suite.Rng.create seed in
  Array.init n (fun i ->
      { Dme.Zst.pos =
          Point.make (Suite.Rng.int rng span) (Suite.Rng.int rng span);
        cap = 5. +. (Suite.Rng.float rng *. 25.); parity = 0;
        label = Printf.sprintf "s%d" i })

let initial_tree () =
  let sinks = random_sinks 4242 30 3_000_000 in
  let tree, buf, _, _ =
    Core.Flow.initial_tree ~config ~tech ~source:(Point.make 0 1_500_000)
      sinks
  in
  (tree, buf)

(* ---------- random edit sequences ---------- *)

let pick_node rng tree pred =
  let n = Tree.size tree in
  let rec go k =
    if k = 0 then None
    else
      let id = Suite.Rng.int rng n in
      if pred (Tree.node tree id) then Some id else go (k - 1)
  in
  go 64

(* Apply one random mutation through the public mutators; returns whether
   anything was edited. [structural] admits node-creating edits. *)
let random_edit ~structural rng tree buf =
  let wires nd = nd.Tree.parent >= 0 in
  let kinds = if structural then 6 else 4 in
  match Suite.Rng.int rng kinds with
  | 0 -> (
    match pick_node rng tree wires with
    | Some id ->
      Tree.set_snake tree id
        ((Tree.node tree id).Tree.snake + 1_000 + Suite.Rng.int rng 20_000);
      true
    | None -> false)
  | 1 -> (
    match
      pick_node rng tree (fun nd -> wires nd && nd.Tree.wire_class > 0)
    with
    | Some id ->
      Tree.set_wire_class tree id ((Tree.node tree id).Tree.wire_class - 1);
      true
    | None -> false)
  | 2 -> (
    match pick_node rng tree wires with
    | Some id ->
      Tree.set_geom_len tree id
        ((Tree.node tree id).Tree.geom_len + 1 + Suite.Rng.int rng 5_000);
      true
    | None -> false)
  | 3 -> (
    match
      pick_node rng tree (fun nd ->
          match nd.Tree.kind with Tree.Buffer _ -> true | _ -> false)
    with
    | Some id -> (
      match (Tree.node tree id).Tree.kind with
      | Tree.Buffer b ->
        Tree.set_buffer tree id (Tech.Composite.scale b 1.15);
        true
      | _ -> false)
    | None -> false)
  | 4 -> (
    match
      pick_node rng tree (fun nd -> wires nd && Tree.wire_len nd >= 2_000)
    with
    | Some id ->
      let len = Tree.wire_len (Tree.node tree id) in
      ignore (Tree.split_wire tree id ~at:(1 + Suite.Rng.int rng (len - 1)));
      true
    | None -> false)
  | _ -> (
    match
      pick_node rng tree (fun nd -> wires nd && Tree.wire_len nd >= 2_000)
    with
    | Some id ->
      let len = Tree.wire_len (Tree.node tree id) in
      ignore
        (Tree.insert_buffer_on_wire tree id
           ~at:(1 + Suite.Rng.int rng (len - 1))
           ~buf);
      true
    | None -> false)

(* ---------- journal: rollback exactness + replay ---------- *)

let test_journal_rollback_random () =
  let base, buf = initial_tree () in
  let rng = Suite.Rng.create 99 in
  for _trial = 1 to 25 do
    let tree = Tree.copy base in
    let oracle = Tree.copy tree in
    let rev0 = Tree.revision tree in
    let j = Tree.Journal.start tree in
    let edits = ref 0 in
    for _ = 1 to 1 + Suite.Rng.int rng 8 do
      if random_edit ~structural:true rng tree buf then incr edits
    done;
    let mutated = Tree.digest tree in
    check_bool "journal stayed consistent" true (Tree.Journal.consistent j);
    Tree.Journal.rollback j;
    check_int "size restored" (Tree.size oracle) (Tree.size tree);
    check_bool "rollback restores exact content" true
      (Tree.digest tree = Tree.digest oracle);
    check_bool "rollback advances the revision (memo safety)" true
      (Tree.revision tree > rev0 || !edits = 0);
    (* The redo log replays the exact mutated content onto any
       content-identical tree — the mechanism behind Speculate.commit. *)
    if mutated <> Tree.digest oracle then begin
      Tree.Journal.replay j ~onto:oracle;
      check_bool "replay reproduces the edits" true
        (Tree.digest oracle = mutated)
    end
  done

let test_journal_value_only_hint () =
  let tree, _ = initial_tree () in
  let s = (Tree.sinks tree).(0) in
  let rev = Tree.revision tree in
  let j = Tree.Journal.start tree in
  Tree.set_snake tree s ((Tree.node tree s).Tree.snake + 7_000);
  (match Core.Speculate.hint_of_journal j with
  | Some h ->
    check_int "hint base revision" rev h.Ev.base_revision;
    check_bool "hint covers the touched node" true (List.mem s h.Ev.nodes)
  | None -> Alcotest.fail "value edit must yield a dirty hint");
  Tree.Journal.rollback j;
  let j2 = Tree.Journal.start tree in
  let w =
    match
      pick_node (Suite.Rng.create 7) tree (fun nd ->
          nd.Tree.parent >= 0 && Tree.wire_len nd >= 2_000)
    with
    | Some id -> id
    | None -> Alcotest.fail "no splittable wire"
  in
  ignore (Tree.split_wire tree w ~at:1_000);
  check_bool "structural edit yields no hint" true
    (Core.Speculate.hint_of_journal j2 = None);
  Tree.Journal.rollback j2

(* ---------- Ivc.speculate: no tree copies on the hot path ---------- *)

let test_attempt_no_copy () =
  let tree, _ = initial_tree () in
  let baseline = Ev.evaluate ~engine:Ev.Spice tree in
  let worsen t =
    let s = (Tree.sinks t).(0) in
    Tree.set_snake t s ((Tree.node t s).Tree.snake + 3_000_000)
  in
  let c0 = Tree.copies () in
  let r =
    Core.Ivc.speculate config tree ~baseline ~objective:Core.Ivc.Skew
      [| worsen |]
  in
  check_bool "worsening candidate rejected" true (Option.is_none r);
  ignore
    (Core.Ivc.speculate config tree ~baseline ~objective:Core.Ivc.Skew
       [| worsen; worsen |]);
  check_int "journaled attempts never copy the tree" c0 (Tree.copies ())

(* A candidate that writes a node field directly bypasses the journal;
   on the main lane there is no replica to resync from, so the search
   must refuse loudly instead of leaving the tree corrupted. *)
let test_serial_bypass_raises () =
  let tree, _ = initial_tree () in
  let baseline = Ev.evaluate ~engine:Ev.Spice tree in
  let bypass t =
    let s = (Tree.sinks t).(0) in
    (Tree.node t s).Tree.snake <- (Tree.node t s).Tree.snake + 1_000;
    Tree.touch t
  in
  check_bool "journal bypass on the main lane raises" true
    (match
       Core.Ivc.speculate config tree ~baseline ~objective:Core.Ivc.Skew
         [| bypass |]
     with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* ---------- incremental dirty-set fast path ---------- *)

let test_dirty_refresh_agreement () =
  let tree, _ = initial_tree () in
  let s = Ev.Incremental.create ~engine:Ev.Spice tree in
  let hooks =
    { Core.Speculate.eval =
        (fun ?edits t -> Ev.Incremental.refresh ?edits ~tree:t s);
      note =
        (fun ~edits ~new_revision ->
          Ev.Incremental.note_edits s ~edits ~new_revision) }
  in
  let config =
    { config with
      Core.Config.spec = Some (Core.Speculate.serial ~main:tree ~hooks) }
  in
  ignore (Core.Ivc.evaluate config tree);
  let sk = (Tree.sinks tree).(0) in
  let j = Tree.Journal.start tree in
  Tree.set_snake tree sk ((Tree.node tree sk).Tree.snake + 500_000);
  let ev = Core.Ivc.evaluate ~journal:j config tree in
  let st = Ev.Incremental.stats s in
  check_bool "dirty fast path engaged" true (st.Ev.dirty_refreshes >= 1);
  let scratch = Ev.evaluate ~engine:Ev.Spice tree in
  check_near 1e-9 "hinted refresh = from-scratch skew" scratch.Ev.skew
    ev.Ev.skew;
  check_near 1e-9 "hinted refresh = from-scratch clr" scratch.Ev.clr ev.Ev.clr;
  (* The rollback is reported through note_edits, so the anchor chain
     survives and the next refresh is dirty too — not a full extraction. *)
  Core.Ivc.rollback config tree j;
  let ev2 = Core.Ivc.evaluate config tree in
  let scratch2 = Ev.evaluate ~engine:Ev.Spice tree in
  check_near 1e-9 "post-rollback refresh = from-scratch" scratch2.Ev.skew
    ev2.Ev.skew;
  let st2 = Ev.Incremental.stats s in
  check_bool "rollback kept the anchor chain" true
    (st2.Ev.dirty_refreshes >= 2)

(* ---------- speculation width determinism ---------- *)

let test_width_determinism () =
  List.iter
    (fun spec ->
      let b = Suite.Runner.load_bench spec in
      let run width =
        let config =
          { Core.Config.default with Core.Config.speculation = width }
        in
        let r0 = Ev.eval_count () in
        let r =
          Core.Flow.run ~config ~tech:b.Suite.Format_io.tech
            ~source:b.Suite.Format_io.source
            ~obstacles:b.Suite.Format_io.obstacles b.Suite.Format_io.sinks
        in
        (r, Ev.eval_count () - r0)
      in
      let name what = Printf.sprintf "%s %s" spec what in
      let r1, e1 = run 1 in
      let r4, e4 = run 4 in
      check_near 0. (name "final skew identical at widths 1 and 4")
        r1.Core.Flow.final.Ev.skew r4.Core.Flow.final.Ev.skew;
      check_near 0. (name "final CLR identical") r1.Core.Flow.final.Ev.clr
        r4.Core.Flow.final.Ev.clr;
      check_bool (name "final trees bit-identical") true
        (Tree.digest r1.Core.Flow.tree = Tree.digest r4.Core.Flow.tree);
      (* Serial exploration stops at each round's winner; wider runs may
         additionally evaluate (and discard) losing ladder rungs. *)
      check_bool (name "serial evaluates no more than width 4") true (e1 <= e4))
    [ "ti:200"; "ti:1000" ]

(* ---------- monotonic deadline ---------- *)

let test_monoclock_and_deadline () =
  let t1 = Core.Monoclock.now () in
  let acc = ref 0. in
  for i = 1 to 10_000 do
    acc := !acc +. float_of_int i
  done;
  let t2 = Core.Monoclock.now () in
  check_bool "monotonic non-decreasing" true (t2 >= t1 && !acc > 0.);
  let tree, _ = initial_tree () in
  let expired =
    { config with Core.Config.deadline = Some (Core.Monoclock.now () -. 1.) }
  in
  check_bool "expired deadline raises" true
    (match Core.Ivc.evaluate expired tree with
    | exception Core.Ivc.Deadline_exceeded -> true
    | _ -> false)

let () =
  Alcotest.run "speculate"
    [
      ( "journal",
        [
          Alcotest.test_case "random rollback vs copy oracle" `Quick
            test_journal_rollback_random;
          Alcotest.test_case "value-only hint" `Quick
            test_journal_value_only_hint;
        ] );
      ( "ivc",
        [
          Alcotest.test_case "no copies on attempt path" `Quick
            test_attempt_no_copy;
          Alcotest.test_case "journal bypass raises" `Quick
            test_serial_bypass_raises;
          Alcotest.test_case "dirty refresh agreement" `Quick
            test_dirty_refresh_agreement;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "width 4 = width 1" `Quick test_width_determinism;
        ] );
      ( "deadline",
        [
          Alcotest.test_case "monoclock + expiry" `Quick
            test_monoclock_and_deadline;
        ] );
    ]

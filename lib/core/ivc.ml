module Tree = Ctree.Tree
module Evaluator = Analysis.Evaluator

type objective = Skew | Clr | Insertion_delay

let eps = 1e-3

let better obj ~candidate:(c : Evaluator.t) ~baseline:(b : Evaluator.t) =
  match obj with
  | Skew ->
    c.Evaluator.skew < b.Evaluator.skew -. eps
    || (c.Evaluator.skew < b.Evaluator.skew +. eps
        && c.Evaluator.clr < b.Evaluator.clr -. eps)
  | Clr ->
    c.Evaluator.clr < b.Evaluator.clr -. eps
    || (c.Evaluator.clr < b.Evaluator.clr +. eps
        && c.Evaluator.skew < b.Evaluator.skew -. eps)
  | Insertion_delay -> c.Evaluator.t_max < b.Evaluator.t_max -. eps

let violation_free (ev : Evaluator.t) = Evaluator.ok ev

(* A candidate introducing violations loses even if the objective
   improved; a baseline that already had violations only needs to not
   get worse. *)
let ok_violations ~baseline ~candidate =
  if violation_free baseline then violation_free candidate
  else
    candidate.Evaluator.slew_violations <= baseline.Evaluator.slew_violations
    && (candidate.Evaluator.cap_ok || not baseline.Evaluator.cap_ok)

exception Deadline_exceeded

let check_deadline config =
  match config.Config.deadline with
  | Some d when Monoclock.now () > d -> raise Deadline_exceeded
  | _ -> ()

(* Atomic: whole flows fan out over domains in the suite runner, and the
   speculative candidate evaluations themselves run on the pool. *)
let attempts_counter = Atomic.make 0
let accepts_counter = Atomic.make 0
let attempts () = Atomic.get attempts_counter
let accepts () = Atomic.get accepts_counter

let hooks config =
  match config.Config.spec with
  | Some ctx -> Speculate.hooks ctx
  | None ->
    { Speculate.eval =
        (fun ?edits:_ t ->
          Evaluator.evaluate ~engine:config.Config.engine
            ~flat:config.Config.flat ~seg_len:config.Config.seg_len
            ~transient_step:config.Config.transient_step
            ~transient_mode:config.Config.transient_mode t);
      note = (fun ~edits:_ ~new_revision:_ -> ()) }

(* Every CNE in the optimization loops funnels through here so that Flow
   can swap in an incremental session for the whole run — which also makes
   it the natural cooperative cancellation point: a run that overruns its
   wall-clock budget is caught before the next evaluation rather than
   killed mid-solve, so the tree and telemetry stay consistent. *)
let evaluate ?journal config tree =
  check_deadline config;
  let h = hooks config in
  match Option.bind journal Speculate.hint_of_journal with
  | Some hint -> h.Speculate.eval ~edits:hint tree
  | None -> h.Speculate.eval tree

let rollback config tree j =
  let h = hooks config in
  let edits =
    match Speculate.hint_of_journal j with
    | Some _ ->
      Some
        { Evaluator.base_revision = Tree.revision tree;
          nodes = Tree.Journal.touched j }
    | None -> None
  in
  Tree.Journal.rollback j;
  h.Speculate.note ~edits ~new_revision:(Tree.revision tree)

let debug_decision config ~baseline ~candidate =
  if config.Config.debug then
    Format.eprintf
      "[ivc] base skew=%.3f clr=%.3f sv=%d | cand skew=%.3f clr=%.3f sv=%d capok=%b@."
      baseline.Evaluator.skew baseline.Evaluator.clr
      baseline.Evaluator.slew_violations candidate.Evaluator.skew
      candidate.Evaluator.clr candidate.Evaluator.slew_violations
      candidate.Evaluator.cap_ok

(* The speculation context for a pass: the configured one, when the pass
   operates on its main tree; otherwise a serial journaled context over
   the given tree with the configured hooks (direct pass invocations,
   tests). *)
let ctx_for config tree =
  match config.Config.spec with
  | Some ctx when Speculate.main ctx == tree -> ctx
  | _ -> Speculate.serial ~main:tree ~hooks:(hooks config)

(* ------------------------------------------------------------------ *)
(* Surrogate-ranked candidate search                                   *)
(* ------------------------------------------------------------------ *)

module Surrogate = Analysis.Surrogate

(* The live calibration state, when ranking applies: the flag is on
   and Flow created a per-run state. *)
let surrogate_state config =
  if config.Config.surrogate then config.Config.surrogate_state else None

let objective_tag = function
  | Skew -> "skew"
  | Clr -> "clr"
  | Insertion_delay -> "tmax"

(* Models are calibrated per technology bundle (the paper's point that
   per-design tuning must not be needed) and per objective — a skew
   delta and a CLR delta respond to the same edit differently. *)
let surrogate_key tree objective =
  (Tree.tech tree).Tech.name ^ "/" ^ objective_tag objective

let measured_delta objective ~baseline (ev : Evaluator.t) =
  match objective with
  | Skew -> ev.Evaluator.skew -. baseline.Evaluator.skew
  | Clr -> ev.Evaluator.clr -. baseline.Evaluator.clr
  | Insertion_delay -> ev.Evaluator.t_max -. baseline.Evaluator.t_max

(* Cheap feature probe: apply the candidate under a journal, snapshot
   the touched nodes' post-edit state, roll back, and read the pre-edit
   state off the restored tree. No evaluation anywhere — the probe costs
   the candidate's closure plus tree surgery. The rollback is reported
   with the journal's own base revision (the session's anchor: the
   apply itself was never reported), so the next evaluation stays on
   the session's dirty path. Returns the features and, when the probe
   journal is value-only and consistent, the closed journal — replaying
   it applies the same candidate without running the closure again. *)
let probe_features config tree ~pos apply =
  let h = hooks config in
  let j = Tree.Journal.start tree in
  let undo () =
    let hint = Speculate.hint_of_journal j in
    (try Tree.Journal.rollback j
     with Invalid_argument _ as e ->
       (* A journal bypass on the main tree is the same fatal condition
          the serial explorer reports — never corrupt silently. *)
       Tree.Journal.abandon j;
       h.Speculate.note ~edits:None ~new_revision:(Tree.revision tree);
       raise e);
    h.Speculate.note ~edits:hint ~new_revision:(Tree.revision tree);
    hint
  in
  match apply tree with
  | exception e ->
    (try ignore (undo ()) with Invalid_argument _ -> ());
    raise e
  | () ->
    let ids = Tree.Journal.touched j in
    let post = Surrogate.snapshot tree ids in
    let hint = undo () in
    ( Surrogate.edit_features ~pos ~ids ~post tree,
      Option.map (fun _ -> j) hint )

let speculate config tree ~baseline ~objective candidates =
  check_deadline config;
  let ctx = ctx_for config tree in
  ignore (Atomic.fetch_and_add attempts_counter (Array.length candidates));
  (* Deterministic winner: the lowest-indexed survivor of the IVC
     acceptance rule. Candidates arrive ordered by preference (the scale
     ladder puts the largest scale first), so acceptance is a pure
     function of candidate order — independent of the speculation width
     and of domain scheduling. Serial exploration stops at the winner;
     wider contexts precompute would-be-discarded rungs in parallel. *)
  let accept { Speculate.ev = candidate; _ } =
    debug_decision config ~baseline ~candidate;
    ok_violations ~baseline ~candidate && better objective ~candidate ~baseline
  in
  let commit_win (i, (outcome : Speculate.outcome)) =
    Atomic.incr accepts_counter;
    Speculate.commit ctx outcome;
    Some (i, outcome.Speculate.ev)
  in
  match surrogate_state config with
  | None -> (
    match Speculate.explore_first ctx candidates ~accept with
    | None -> None
    | Some win -> commit_win win)
  | Some state ->
    (* Surrogate-ranked search. Every decision below is a pure function
       of (model state, probed features, measured evaluations), and
       every evaluated candidate set is deterministic — so the schedule,
       the eval count and the winner are identical at every speculation
       width and on every machine, unlike the eager unranked batches
       whose discarded-loser count depends on the pool size. *)
    let k = Array.length candidates in
    let key = surrogate_key tree objective in
    let pos = Surrogate.position_fn baseline in
    let probes = Array.map (probe_features config tree ~pos) candidates in
    let feats = Array.map fst probes in
    (* Apply each probed candidate once: a value-only probe journal is
       replayed (its net edit, under the evaluation's journal) instead
       of running the candidate's closure a second time. *)
    let candidates =
      Array.map2
        (fun apply (_, replay) ->
          match replay with
          | Some pj -> fun t -> Tree.Journal.replay pj ~onto:t
          | None -> apply)
        candidates probes
    in
    let observe i (o : Speculate.outcome) =
      Surrogate.observe state ~key feats.(i)
        (measured_delta objective ~baseline o.Speculate.ev)
    in
    let preds = Array.map (fun x -> Surrogate.predict state ~key x) feats in
    if k = 0 || Array.exists Option.is_none preds then begin
      (* Warm-up: the model is cold. Run the width-1 lazy schedule
         (identical at every width — [lazy_only]) and feed every
         measured pair, winner or loser, into the calibration buffer. *)
      Surrogate.note_warmup state;
      match
        Speculate.explore_first ~measured:observe ~lazy_only:true ctx
          candidates ~accept
      with
      | None -> None
      | Some win -> commit_win win
    end
    else begin
      Surrogate.note_ranked state;
      let preds = Array.map Option.get preds in
      (* First-survivor scan over a candidate subset, in original-index
         order, feeding every measured outcome to calibration. The lazy
         serial schedule stops at the first acceptance — exactly the
         unranked search's cost model — and keeps the evaluated set
         width-independent. *)
      let explore_sub idxs =
        if Array.length idxs = 0 then None
        else begin
          let mapped = Array.map (fun i -> candidates.(i)) idxs in
          let measured si o = observe idxs.(si) o in
          match
            Speculate.explore_first ~measured ~lazy_only:true ctx mapped
              ~accept
          with
          | None -> None
          | Some (si, o) -> Some (idxs.(si), o)
        end
      in
      (* A candidate whose optimistic bound (prediction minus the 1σ
         pruning margin) cannot clear the improvement threshold is ruled
         out without evaluation. *)
      let prune = Surrogate.prune_radius state ~key in
      let hopeless j = fst preds.(j) -. prune > -.eps in
      let all = List.init k Fun.id in
      if
        List.for_all hopeless all
        && not (Surrogate.audit_hopeless state)
      then begin
        (* The model confidently rules out the whole round — the search
           ends with zero evaluations where the unranked scan would pay
           k rejections. Every 8th such round falls through to the
           ranked path instead (the audit), so a drifted model cannot
           silently terminate every loop. *)
        Surrogate.note_saved state k;
        None
      end
      else begin
        (* Rank by predicted delta (most improving first), ties by index
           so the baseline's preference order breaks them. *)
        let order = Array.init k Fun.id in
        Array.sort
          (fun a b ->
            match Float.compare (fst preds.(a)) (fst preds.(b)) with
            | 0 -> Int.compare a b
            | c -> c)
          order;
        let base_r =
          if config.Config.rank_top > 0 then config.Config.rank_top
          else max 1 (k / 4)
        in
        let r = min k (base_r + Surrogate.widening state ~key) in
        let chunk = Array.sub order 0 r in
        (* Scan in original-index order: the winner rule stays "lowest
           original index among accepted", the same preference the
           unranked search implements. *)
        Array.sort Int.compare chunk;
        let in_chunk = Array.make k false in
        Array.iter (fun i -> in_chunk.(i) <- true) chunk;
        match explore_sub chunk with
        | Some (i, o) ->
          let pred, trust = preds.(i) in
          let meas = measured_delta objective ~baseline o.Speculate.ev in
          if Float.abs (meas -. pred) <= trust then begin
            Surrogate.note_intrust state ~key;
            Surrogate.note_saved state (k - r);
            commit_win (i, o)
          end
          else begin
            (* Mispredict guard: the winner's measured delta fell outside
               the model's own trust radius, so the ranking cannot be
               relied on this round — widen R persistently and fall back.
               Only skipped candidates {e below} i can displace it: the
               winner rule is lowest accepted index, so anything above i
               loses to it regardless of its outcome. *)
            Surrogate.note_mispredict state ~key;
            Surrogate.note_fallback state;
            let below =
              Array.of_list
                (List.filter (fun j -> (not in_chunk.(j)) && j < i) all)
            in
            let final =
              match explore_sub below with
              | Some win -> win  (* index < i by construction *)
              | None -> (i, o)
            in
            commit_win final
          end
        | None -> (
          (* Nothing in the chunk survived. Remaining candidates the
             model rules out ({!hopeless}) are skipped — the
             rejection-round savings; the rest are scanned so a real
             winner cannot be lost to a ranking mistake. *)
          let keep, skipped =
            List.partition
              (fun j -> not (hopeless j))
              (List.filter (fun j -> not in_chunk.(j)) all)
          in
          Surrogate.note_saved state (List.length skipped);
          if keep <> [] then Surrogate.note_fallback state;
          match explore_sub (Array.of_list keep) with
          | None -> None
          | Some (i2, o2) ->
            let pred, trust = preds.(i2) in
            let meas = measured_delta objective ~baseline o2.Speculate.ev in
            if Float.abs (meas -. pred) > trust then
              Surrogate.note_mispredict state ~key;
            commit_win (i2, o2))
      end
    end

let iterate config tree ~baseline ~objective plan =
  let rec go baseline accepted round =
    if round >= config.Config.max_rounds then (baseline, accepted)
    else begin
      let apply = plan tree baseline in
      match speculate config tree ~baseline ~objective [| apply |] with
      | Some (_, ev) -> go ev (accepted + 1) (round + 1)
      | None -> (baseline, accepted)
    end
  in
  go baseline 0 0

(* The speculative scale ladder: instead of discovering the right damping
   one CNE at a time (try s, reject, halve, retry …), evaluate the whole
   ladder as one candidate batch and keep the best survivor. The ladder
   is a fixed function of the current scale, so the evaluation schedule —
   and with it the eval count and the final tree — is identical at every
   speculation width. *)
let ladder scale = [| scale; scale /. 2.; scale /. 4.; scale /. 8. |]

let adaptive_iterate config tree ~baseline ~objective plan =
  let rec go baseline accepted attempts scale =
    if attempts >= config.Config.max_rounds || scale < 0.01 then
      (baseline, accepted, attempts)
    else begin
      (* One plan per round, on the (unmutated) main tree: the O(n)
         slack/sensitivity analysis is hoisted out of the K-candidate
         fan-out; the returned closure only applies precomputed edits,
         which is valid on any content-identical replica. *)
      let apply = plan tree baseline in
      let rungs = ladder scale in
      let candidates = Array.map (fun s t -> apply ~scale:s t) rungs in
      let k = Array.length rungs in
      match speculate config tree ~baseline ~objective candidates with
      | Some (i, ev) ->
        go ev (accepted + 1) (attempts + k) (Float.min 1. (rungs.(i) *. 1.3))
      | None ->
        (* No rung survived: the ladder already explored four halvings,
           the serial loop's give-up condition. *)
        (baseline, accepted, attempts + k)
    end
  in
  go baseline 0 0 1.0

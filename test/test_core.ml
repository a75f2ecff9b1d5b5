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
      { Dme.Zst.pos = Point.make (Suite.Rng.int rng span) (Suite.Rng.int rng span);
        cap = 5. +. Suite.Rng.float rng *. 25.; parity = 0;
        label = Printf.sprintf "s%d" i })

let small_flow_input () = random_sinks 4242 30 3_000_000

let initial_tree () =
  let sinks = small_flow_input () in
  let tree, buf, _, _ =
    Core.Flow.initial_tree ~config ~tech ~source:(Point.make 0 1_500_000) sinks
  in
  (tree, buf)

(* ---------- Slack (paper §III) ---------- *)

let test_slack_definitions () =
  let tree, _ = initial_tree () in
  let ev = Ev.evaluate ~engine:Ev.Spice tree in
  let run = Ev.nominal_run ev Ev.Rise in
  let slacks = Core.Slack.of_run tree run in
  let sinks = Tree.sinks tree in
  (* Definition 1: Slack_slow s = Tmax - Ts, Slack_fast s = Ts - Tmin. *)
  Array.iter
    (fun s ->
      let l = run.Ev.latency.(s) in
      check_near 1e-6 "slow slack def" (slacks.Core.Slack.t_max -. l)
        slacks.Core.Slack.sink_slow.(s);
      check_near 1e-6 "fast slack def" (l -. slacks.Core.Slack.t_min)
        slacks.Core.Slack.sink_fast.(s))
    sinks;
  (* Some sink is critical in each direction. *)
  check_bool "critical slow sink" true
    (Array.exists (fun s -> slacks.Core.Slack.sink_slow.(s) < 1e-9) sinks);
  check_bool "critical fast sink" true
    (Array.exists (fun s -> slacks.Core.Slack.sink_fast.(s) < 1e-9) sinks)

let test_slack_lemma1 () =
  (* Edge slack = min over downstream sinks (Lemma 1). *)
  let tree, _ = initial_tree () in
  let ev = Ev.evaluate ~engine:Ev.Spice tree in
  let slacks = Core.Slack.of_run tree (Ev.nominal_run ev Ev.Rise) in
  Tree.iter tree (fun nd ->
      if nd.Tree.parent >= 0 then begin
        let below = Tree.subtree_sinks tree nd.Tree.id in
        if below <> [] then begin
          let expected =
            List.fold_left
              (fun acc s -> Float.min acc slacks.Core.Slack.sink_slow.(s))
              infinity below
          in
          check_near 1e-6 "lemma 1" expected slacks.Core.Slack.slow.(nd.Tree.id)
        end
      end)

let test_slack_lemma2 () =
  (* Slacks are monotone non-decreasing down any path (Lemma 2). *)
  let tree, _ = initial_tree () in
  let ev = Ev.evaluate ~engine:Ev.Spice tree in
  let slacks = Core.Slack.of_run tree (Ev.nominal_run ev Ev.Fall) in
  Tree.iter tree (fun nd ->
      if nd.Tree.parent >= 0 && nd.Tree.parent <> Tree.root tree then begin
        check_bool "slow monotone" true
          (slacks.Core.Slack.slow.(nd.Tree.id)
           >= slacks.Core.Slack.slow.(nd.Tree.parent) -. 1e-9);
        check_bool "fast monotone" true
          (slacks.Core.Slack.fast.(nd.Tree.id)
           >= slacks.Core.Slack.fast.(nd.Tree.parent) -. 1e-9)
      end)

let test_slack_proposition1 () =
  (* Δ decomposition: the per-edge deltas along any root-to-sink path sum
     to that sink's slack (Proposition 1). *)
  let tree, _ = initial_tree () in
  let ev = Ev.evaluate ~engine:Ev.Spice tree in
  let run = Ev.nominal_run ev Ev.Rise in
  let slacks = Core.Slack.of_run tree run in
  Array.iter
    (fun s ->
      let rec path_sum i acc =
        if i < 0 || i = Tree.root tree then acc
        else
          path_sum (Tree.node tree i).Tree.parent
            (acc +. Core.Slack.delta_slow slacks tree i)
      in
      check_near 1e-6 "deltas sum to sink slack"
        slacks.Core.Slack.sink_slow.(s) (path_sum s 0.))
    (Tree.sinks tree)

let test_slack_combined_min () =
  let tree, _ = initial_tree () in
  let ev = Ev.evaluate ~engine:Ev.Spice tree in
  let rise = Core.Slack.of_run tree (Ev.nominal_run ev Ev.Rise) in
  let fall = Core.Slack.of_run tree (Ev.nominal_run ev Ev.Fall) in
  let combined = Core.Slack.combined tree ev in
  Tree.iter tree (fun nd ->
      let i = nd.Tree.id in
      check_bool "combined <= rise" true
        (combined.Core.Slack.slow.(i) <= rise.Core.Slack.slow.(i) +. 1e-9);
      check_bool "combined <= fall" true
        (combined.Core.Slack.slow.(i) <= fall.Core.Slack.slow.(i) +. 1e-9))

(* Regression: corners must compare by name, not physical identity.
   Rebuilding each run's corner record (structurally equal, physically
   distinct — as a variation sweep or file round-trip does) used to make
   [combined] silently drop every run but the head, so the fall-transition
   nominal run no longer constrained the slack. *)
let test_slack_combined_cloned_corners () =
  let tree, _ = initial_tree () in
  let ev = Ev.evaluate ~engine:Ev.Arnoldi tree in
  let clone (c : Tech.Corner.t) = { c with Tech.Corner.name = c.Tech.Corner.name } in
  let cloned =
    { ev with
      Ev.runs =
        List.map
          (fun (r : Ev.run) -> { r with Ev.corner = clone r.Ev.corner })
          ev.Ev.runs }
  in
  let reference = Core.Slack.combined tree ev in
  let combined = Core.Slack.combined tree cloned in
  check_near 1e-12 "t_min unaffected by corner cloning"
    reference.Core.Slack.t_min combined.Core.Slack.t_min;
  check_near 1e-12 "t_max unaffected by corner cloning"
    reference.Core.Slack.t_max combined.Core.Slack.t_max;
  Tree.iter tree (fun nd ->
      let i = nd.Tree.id in
      check_near 1e-12 "slow slack unaffected by corner cloning"
        reference.Core.Slack.slow.(i) combined.Core.Slack.slow.(i);
      check_near 1e-12 "fast slack unaffected by corner cloning"
        reference.Core.Slack.fast.(i) combined.Core.Slack.fast.(i));
  (* Guard against vacuity: with both nominal transitions kept, combined
     is strictly tighter than the rise run alone somewhere. *)
  let rise = Core.Slack.of_run tree (Ev.nominal_run ev Ev.Rise) in
  let tighter = ref false in
  Tree.iter tree (fun nd ->
      let i = nd.Tree.id in
      if combined.Core.Slack.slow.(i) < rise.Core.Slack.slow.(i) -. 1e-9 then
        tighter := true);
  check_bool "fall run contributes to the combined slack" true !tighter

(* ---------- Polarity (paper §IV-D, Prop. 2) ---------- *)

let buffered_tree seed =
  let sinks = random_sinks seed 40 3_000_000 in
  let zst = Dme.Zst.build ~tech ~source:(Point.make 0 1_500_000) sinks in
  let buf = Tech.Composite.make Tech.Device.small_inverter 16 in
  let ceiling = Route.Slewcap.lumped ~tech ~buf () in
  (Buffering.Fast_vg.insert zst ~buf ~cap_ceiling:ceiling (), buf)

let test_polarity_strategies_correct () =
  List.iter
    (fun strategy ->
      let tree, buf = buffered_tree 7 in
      ignore (Core.Polarity.correct tree ~buf ~strategy);
      Alcotest.(check (list int)) "no inverted sinks left" []
        (Core.Polarity.inverted_sinks tree);
      Alcotest.(check (list string)) "still valid" [] (Ctree.Validate.check tree))
    [ Core.Polarity.Per_sink; Core.Polarity.Top_then_per_sink; Core.Polarity.Minimal ]

let test_polarity_minimal_cheapest () =
  let strictly = ref false in
  List.iter
    (fun seed ->
      let count strategy =
        let tree, buf = buffered_tree seed in
        (Core.Polarity.correct tree ~buf ~strategy).Core.Polarity.added
      in
      let per_sink = count Core.Polarity.Per_sink in
      let top = count Core.Polarity.Top_then_per_sink in
      let minimal = count Core.Polarity.Minimal in
      check_bool "minimal <= top variant" true (minimal <= top);
      check_bool "minimal <= per-sink" true (minimal <= per_sink);
      if minimal < per_sink then strictly := true)
    [ 7; 8; 12; 21 ];
  (* Wrong sinks cluster (Table II): on some tree the gap is strict. *)
  check_bool "strictly cheaper somewhere" true !strictly

let test_polarity_one_per_path () =
  (* Proposition 2's constraint: at most one added inverter per
     root-to-sink path. All sinks need parity 0, so after Minimal every
     path has an EVEN total count and at most one was added below any
     formerly-uniform subtree. We verify the weaker, checkable invariant:
     correcting twice adds nothing. *)
  let tree, buf = buffered_tree 9 in
  ignore (Core.Polarity.correct tree ~buf ~strategy:Core.Polarity.Minimal);
  let second = Core.Polarity.correct tree ~buf ~strategy:Core.Polarity.Minimal in
  check_int "idempotent" 0 second.Core.Polarity.added

let test_polarity_counts_match_marks () =
  let tree, buf = buffered_tree 10 in
  let predicted = Core.Polarity.minimal_count tree in
  let report = Core.Polarity.correct tree ~buf ~strategy:Core.Polarity.Minimal in
  check_int "count equals marks" predicted report.Core.Polarity.added

let polarity_qcheck =
  QCheck.Test.make ~name:"polarity: minimal corrects any random tree"
    ~count:15
    QCheck.(int_range 0 1000)
    (fun seed ->
      let tree, buf = buffered_tree seed in
      ignore (Core.Polarity.correct tree ~buf ~strategy:Core.Polarity.Minimal);
      Core.Polarity.inverted_sinks tree = []
      && Ctree.Validate.check tree = [])

(* ---------- Stage balancing ---------- *)

let test_stage_balance () =
  let tree, buf = buffered_tree 11 in
  ignore (Core.Polarity.correct tree ~buf ~strategy:Core.Polarity.Minimal);
  ignore (Core.Stage_balance.equalize tree ~buf);
  let lo, hi = Core.Stage_balance.count_range tree in
  check_int "uniform stage count" lo hi;
  Alcotest.(check (list int)) "polarity still correct" []
    (Core.Polarity.inverted_sinks tree);
  Alcotest.(check (list string)) "valid" [] (Ctree.Validate.check tree)

let test_stage_balance_artificial () =
  (* Hand-build a tree with a 2-stage deficit and check the equaliser. *)
  let t = Tree.create ~tech ~source_pos:(Point.make 0 0) in
  let buf = Tech.Composite.make Tech.Device.small_inverter 8 in
  let chain parent n stop =
    (* n buffers spaced along a wire towards [stop] *)
    let target = ref parent in
    for i = 1 to n do
      let pos =
        Point.make (stop * i / (n + 1)) 0
      in
      target :=
        Tree.add_node t ~kind:(Tree.Buffer buf) ~pos ~parent:!target ()
    done;
    !target
  in
  let a_end = chain (Tree.root t) 4 1_000_000 in
  let _sink_a =
    Tree.add_node t ~kind:(Tree.Sink { Tree.cap = 10.; parity = 0; label = "a" })
      ~pos:(Point.make 1_000_000 0) ~parent:a_end ()
  in
  let b_end = chain (Tree.root t) 2 800_000 in
  let _sink_b =
    Tree.add_node t ~kind:(Tree.Sink { Tree.cap = 10.; parity = 0; label = "b" })
      ~pos:(Point.make 800_000 200_000) ~parent:b_end ()
  in
  let lo, hi = Core.Stage_balance.count_range t in
  check_int "deficit before" 2 (hi - lo);
  let report = Core.Stage_balance.equalize t ~buf in
  check_int "one pair added" 1 report.Core.Stage_balance.pairs_added;
  let lo, hi = Core.Stage_balance.count_range t in
  check_int "uniform after" lo hi;
  Alcotest.(check (list string)) "valid" [] (Ctree.Validate.check t)

(* ---------- Probes / sensitivities ---------- *)

let test_sensitivities_shape () =
  let tree, _ = initial_tree () in
  let sens = Core.Probes.sensitivities tree in
  let order = Tree.topo_order tree in
  Array.iter
    (fun i ->
      let nd = Tree.node tree i in
      if nd.Tree.parent >= 0 then begin
        check_bool "snake delay positive" true
          (sens.Core.Probes.snake_delay.(i) > 0.);
        check_bool "snake slew >= delay sens" true
          (sens.Core.Probes.snake_slew.(i) >= sens.Core.Probes.snake_delay.(i))
      end)
    order;
  (* Deeper stage cap at the trunk should exceed a sink wire's. *)
  let sinks = Tree.sinks tree in
  let trunk = List.hd (Core.Buffer_slide.trunk_chain tree) in
  check_bool "trunk sees more stage cap" true
    (sens.Core.Probes.cdown.(trunk) > sens.Core.Probes.cdown.(sinks.(0)))

let test_probe_calibration () =
  let tree, _ = initial_tree () in
  let baseline = Ev.evaluate ~engine:Ev.Spice tree in
  let size_before = Tree.size tree in
  let stats_before = Ctree.Stats.compute tree in
  let digest = Tree.digest tree in
  let pinned what (worst, corr) expected =
    Alcotest.(check string) what expected (Printf.sprintf "%h %h" worst corr)
  in
  let twn, corr = Core.Wiresnaking.estimate_twn config tree ~baseline in
  check_bool "twn positive" true (twn > 0.);
  check_bool "correction clamped" true (corr >= 0.5 && corr <= 4.);
  (* probing restores the tree exactly *)
  check_int "size restored" size_before (Tree.size tree);
  check_int "wirelength restored" stats_before.Ctree.Stats.wirelength
    (Ctree.Stats.compute tree).Ctree.Stats.wirelength;
  check_bool "digest restored after twn" true (Tree.digest tree = digest);
  let tws = Core.Wiresizing.estimate_tws config tree ~baseline in
  check_bool "digest restored after tws" true (Tree.digest tree = digest);
  (* Both estimators share one calibration routine; their outputs are
     pinned bit-exactly so a refactor of it cannot drift them. *)
  pinned "(twn, correction)" (twn, corr)
    "0x1.99c89fcc38p-5 0x1.607e63ff97ee1p-1";
  pinned "(tws, correction)" tws
    "0x1.46da1d7d54802p-16 0x1.31a345001c2dep-1"

let test_slew_headroom_stage_aware () =
  let tree, _ = initial_tree () in
  let ev = Ev.evaluate ~engine:Ev.Spice tree in
  let hr = Core.Probes.subtree_slew_headroom tree ev in
  let limit = tech.Tech.slew_limit in
  Array.iter
    (fun s -> check_bool "sink headroom within [0,limit]" true
        (hr.(s) >= 0. && hr.(s) <= limit))
    (Tree.sinks tree);
  (* The root's headroom only reflects its own stage, not the worst sink:
     it must be at least the worst FIRST-stage tap headroom, which can be
     better than the global worst. *)
  let global_worst =
    List.fold_left
      (fun acc (r : Ev.run) -> Float.max acc r.Ev.worst_slew)
      0. ev.Ev.runs
  in
  let trunk = List.hd (Core.Buffer_slide.trunk_chain tree) in
  check_bool "stage-aware headroom" true
    (hr.(trunk) >= limit -. global_worst -. 1e-9)

(* ---------- IVC ---------- *)

let test_ivc_rollback () =
  let tree, _ = initial_tree () in
  let baseline = Ev.evaluate ~engine:Ev.Spice tree in
  let before = Tree.size tree in
  (* A mutation that makes things strictly worse must be rolled back. *)
  let result =
    Core.Ivc.speculate config tree ~baseline ~objective:Core.Ivc.Skew
      [| (fun t ->
           let s = (Tree.sinks t).(0) in
           Tree.set_snake t s ((Tree.node t s).Tree.snake + 3_000_000)) |]
  in
  check_bool "rejected" true (Option.is_none result);
  check_int "size restored" before (Tree.size tree);
  let after = Ev.evaluate ~engine:Ev.Spice tree in
  check_near 1e-9 "skew restored" baseline.Ev.skew after.Ev.skew

let test_ivc_accepts_improvement () =
  let tree, _ = initial_tree () in
  let baseline = Ev.evaluate ~engine:Ev.Spice tree in
  (* Snake the fastest sink a little: should reduce skew. *)
  let slacks = Core.Slack.combined tree baseline in
  let fastest =
    Array.fold_left
      (fun acc s ->
        if slacks.Core.Slack.sink_slow.(s) > slacks.Core.Slack.sink_slow.(acc)
        then s else acc)
      (Tree.sinks tree).(0) (Tree.sinks tree)
  in
  let result =
    Core.Ivc.speculate config tree ~baseline ~objective:Core.Ivc.Skew
      [| (fun t ->
           Tree.set_snake t fastest
             ((Tree.node t fastest).Tree.snake + 100_000)) |]
  in
  check_bool "accepted" true (Option.is_some result)

let test_ivc_better () =
  let mk skew clr =
    let base = Ev.evaluate ~engine:Ev.Elmore_model (fst (initial_tree ())) in
    { base with Ev.skew; clr }
  in
  let a = mk 10. 20. and b = mk 5. 30. in
  check_bool "skew objective" true
    (Core.Ivc.better Core.Ivc.Skew ~candidate:b ~baseline:a);
  check_bool "clr objective prefers a" true
    (Core.Ivc.better Core.Ivc.Clr ~candidate:a ~baseline:b)

(* ---------- Insertion sweep ---------- *)

let test_insertion_legal () =
  let sinks = small_flow_input () in
  let zst = Dme.Zst.build ~tech:(Tech.default45 ~cap_limit:40_000. ())
      ~source:(Point.make 0 1_500_000) sinks in
  let result = Core.Insertion.run config zst in
  let ev = result.Core.Insertion.eval in
  check_int "no slew violations" 0 ev.Ev.slew_violations;
  check_bool "within power budget" true
    (ev.Ev.stats.Ctree.Stats.total_cap
     <= (1. -. config.Core.Config.gamma) *. 40_000. +. 1e-6);
  check_bool "strongest-first preference" true
    (result.Core.Insertion.buf.Tech.Composite.count >= 2)

let test_insertion_candidates_order () =
  let cands = Core.Insertion.candidates config tech in
  check_bool "non-empty" true (cands <> []);
  let rec decreasing_strength = function
    | a :: b :: rest ->
      Tech.Composite.r_out a <= Tech.Composite.r_out b
      && decreasing_strength (b :: rest)
    | _ -> true
  in
  check_bool "strongest first" true (decreasing_strength cands)

let test_delta_fast () =
  let tree, _ = initial_tree () in
  let ev = Ev.evaluate ~engine:Ev.Spice tree in
  let slacks = Core.Slack.of_run tree (Ev.nominal_run ev Ev.Rise) in
  (* Mirror of Prop. 1 for speed-up: deltas along a path sum to the sink's
     fast slack. *)
  Array.iter
    (fun s ->
      let rec path_sum i acc =
        if i < 0 || i = Tree.root tree then acc
        else
          path_sum (Tree.node tree i).Tree.parent
            (acc +. Core.Slack.delta_fast slacks tree i)
      in
      check_near 1e-6 "fast deltas sum" slacks.Core.Slack.sink_fast.(s)
        (path_sum s 0.))
    (Tree.sinks tree)

let test_insertion_tried_counter () =
  let sinks = small_flow_input () in
  let zst =
    Dme.Zst.build ~tech:(Tech.default45 ~cap_limit:40_000. ())
      ~source:(Point.make 0 1_500_000) sinks
  in
  let r = Core.Insertion.run config zst in
  check_bool "at least one attempt" true (r.Core.Insertion.tried >= 1);
  check_bool "ceiling recorded" true (r.Core.Insertion.ceiling > 0.)

(* ---------- Optimizers make progress and stay legal ---------- *)

let test_wiresnaking_progress () =
  let tree, _ = initial_tree () in
  let baseline = Ev.evaluate ~engine:Ev.Spice tree in
  let r = Core.Wiresnaking.run config tree ~baseline in
  check_bool "skew not worse" true
    (r.Core.Wiresnaking.eval.Ev.skew <= baseline.Ev.skew +. 1e-6);
  check_int "stays violation free" 0 r.Core.Wiresnaking.eval.Ev.slew_violations;
  Alcotest.(check (list string)) "valid" [] (Ctree.Validate.check tree)

let test_flow_end_to_end () =
  let sinks = small_flow_input () in
  let r =
    Core.Flow.run ~config ~tech:(Tech.default45 ~cap_limit:40_000. ())
      ~source:(Point.make 0 1_500_000) sinks
  in
  check_int "five trace steps" 5 (List.length r.Core.Flow.trace);
  let initial = List.hd r.Core.Flow.trace in
  let final = List.nth r.Core.Flow.trace 4 in
  check_bool "skew improved" true (final.Core.Flow.skew < initial.Core.Flow.skew);
  check_bool "clr improved" true (final.Core.Flow.clr < initial.Core.Flow.clr);
  check_bool "single-digit final skew" true (final.Core.Flow.skew < 10.);
  check_int "legal" 0 r.Core.Flow.final.Ev.slew_violations;
  check_bool "cap ok" true r.Core.Flow.final.Ev.cap_ok;
  Alcotest.(check (list string)) "valid" [] (Ctree.Validate.check r.Core.Flow.tree);
  Alcotest.(check (list int)) "polarity correct" []
    (Core.Polarity.inverted_sinks r.Core.Flow.tree)

let test_flow_with_obstacles_legal_buffers () =
  let rng = Suite.Rng.create 77 in
  let obstacles =
    [ Rect.make ~lx:800_000 ~ly:800_000 ~hx:2_000_000 ~hy:2_000_000 ]
  in
  let inside p = List.exists (fun r -> Rect.contains_open r p) obstacles in
  let rec pos () =
    let p = Point.make (Suite.Rng.int rng 3_000_000) (Suite.Rng.int rng 3_000_000) in
    if inside p then pos () else p
  in
  let sinks =
    Array.init 25 (fun i ->
        { Dme.Zst.pos = pos (); cap = 10.; parity = 0;
          label = Printf.sprintf "s%d" i })
  in
  let r =
    Core.Flow.run ~config ~tech ~source:(Point.make 0 1_500_000) ~obstacles sinks
  in
  Alcotest.(check (list int)) "no buffers in obstacles" []
    (Route.Repair.illegal_buffers r.Core.Flow.tree ~obstacles);
  check_bool "repair report present" true (r.Core.Flow.repair <> None)

(* ---------- Buffer slide / sizing ---------- *)

let test_trunk_detection () =
  let tree, _ = initial_tree () in
  let chain = Core.Buffer_slide.trunk_chain tree in
  check_bool "trunk exists" true (List.length chain >= 1);
  let buffers = Core.Buffer_slide.trunk_buffers tree in
  check_bool "trunk has buffers" true (List.length buffers >= 1)

let test_respace_preserves () =
  let tree, buf = initial_tree () in
  let ceiling = Route.Slewcap.lumped ~tech ~buf () in
  let before_sinks = Array.length (Tree.sinks tree) in
  let slid, report = Core.Buffer_slide.respace tree ~ceiling in
  Alcotest.(check (list string)) "valid" [] (Ctree.Validate.check slid);
  check_int "sinks preserved" before_sinks (Array.length (Tree.sinks slid));
  check_bool "parity of chain preserved" true
    ((report.Core.Buffer_slide.trunk_buffers_after
      - report.Core.Buffer_slide.trunk_buffers_before) mod 2 = 0);
  Alcotest.(check (list int)) "polarity survives respace" []
    (Core.Polarity.inverted_sinks slid)

let test_bottom_buffers () =
  let tree, _ = initial_tree () in
  let bottoms = Core.Buffer_sizing.bottom_buffers tree in
  check_bool "bottom buffers exist" true (bottoms <> []);
  (* None of them has a buffer descendant. *)
  List.iter
    (fun id ->
      let rec no_buf_below i =
        List.for_all
          (fun c ->
            (match (Tree.node tree c).Tree.kind with
            | Tree.Buffer _ -> false
            | _ -> true)
            && no_buf_below c)
          (Tree.node tree i).Tree.children
      in
      check_bool "leaf-level" true (no_buf_below id))
    bottoms

let test_flow_deterministic () =
  let run () =
    let sinks = small_flow_input () in
    (Core.Flow.run ~config ~tech:(Tech.default45 ~cap_limit:40_000. ())
       ~source:(Point.make 0 1_500_000) sinks)
      .Core.Flow.final.Ev.skew
  in
  check_near 1e-9 "two runs identical" (run ()) (run ())

let test_flow_multiwidth () =
  (* Four wire classes: TWSZ has finer granularity and must use the
     intermediate classes. *)
  let sinks = random_sinks 99 25 2_500_000 in
  let tech4 = Tech.default45_multiwidth ~cap_limit:40_000. () in
  let r = Core.Flow.run ~config ~tech:tech4 ~source:(Point.make 0 1_000_000) sinks in
  check_bool "flow works on 4-width tech" true (r.Core.Flow.final.Ev.skew < 10.);
  let classes = Hashtbl.create 4 in
  Ctree.Tree.iter r.Core.Flow.tree (fun nd ->
      if nd.Ctree.Tree.parent >= 0 then
        Hashtbl.replace classes nd.Ctree.Tree.wire_class ());
  check_bool "more than one wire class in use" true (Hashtbl.length classes >= 2)

let test_flow_arnoldi_engine () =
  (* The methodology is evaluator-agnostic: the Arnoldi engine must reach
     the same band; cross-check the result under the transient engine. *)
  let sinks = small_flow_input () in
  let cfg = { config with Core.Config.engine = Ev.Arnoldi } in
  let r =
    Core.Flow.run ~config:cfg ~tech:(Tech.default45 ~cap_limit:40_000. ())
      ~source:(Point.make 0 1_500_000) sinks
  in
  check_bool "arnoldi flow converges" true (r.Core.Flow.final.Ev.skew < 10.);
  let cross = Ev.evaluate ~engine:Ev.Spice r.Core.Flow.tree in
  check_bool "cross-checked skew sane" true (cross.Ev.skew < 20.)

let test_stage_balance_noop_when_balanced () =
  let tree, buf = initial_tree () in
  (* initial_tree already balances; a second call adds nothing *)
  let report = Core.Stage_balance.equalize tree ~buf in
  check_int "no pairs on balanced tree" 0 report.Core.Stage_balance.pairs_added

let test_wiresizing_uses_narrow_classes () =
  let sinks = small_flow_input () in
  let tree, _, _, _ =
    Core.Flow.initial_tree ~config ~tech ~source:(Point.make 0 1_500_000) sinks
  in
  let baseline = Ev.evaluate ~engine:Ev.Spice tree in
  let widest = Tech.widest_wire tech in
  let narrow_before =
    let n = ref 0 in
    Ctree.Tree.iter tree (fun nd ->
        if nd.Ctree.Tree.parent >= 0 && nd.Ctree.Tree.wire_class < widest then incr n);
    !n
  in
  let r = Core.Wiresizing.run config tree ~baseline in
  let narrow_after =
    let n = ref 0 in
    Ctree.Tree.iter tree (fun nd ->
        if nd.Ctree.Tree.parent >= 0 && nd.Ctree.Tree.wire_class < widest then incr n);
    !n
  in
  check_bool "some wires downsized" true
    (narrow_after > narrow_before || r.Core.Wiresizing.rounds = 0);
  check_bool "skew not worse" true
    (r.Core.Wiresizing.eval.Ev.skew <= baseline.Ev.skew +. 1e-6)

let test_flow_ablation_flags () =
  (* The ablation switches must not break legality, only quality. *)
  let sinks = random_sinks 4321 20 2_000_000 in
  List.iter
    (fun cfg ->
      let r =
        Core.Flow.run ~config:cfg ~tech:(Tech.default45 ~cap_limit:40_000. ())
          ~source:(Point.make 0 1_000_000) sinks
      in
      check_int "legal" 0 r.Core.Flow.final.Ev.slew_violations;
      Alcotest.(check (list string)) "valid" []
        (Ctree.Validate.check r.Core.Flow.tree))
    [ { config with Core.Config.stage_balancing = false };
      { config with Core.Config.elmore_prebalance = false } ]

let flow_qcheck =
  (* Whole-flow invariants over random instances (Arnoldi engine for
     speed): valid tree, correct polarity, no violations, within the cap
     budget, and skew never worse than the initial state. *)
  QCheck.Test.make ~name:"flow: invariants hold on random instances" ~count:5
    QCheck.(pair (int_range 8 35) (int_range 0 10_000))
    (fun (n, seed) ->
      let sinks = random_sinks seed n 2_500_000 in
      let cfg =
        { config with Core.Config.engine = Ev.Arnoldi; max_rounds = 40 }
      in
      let r =
        Core.Flow.run ~config:cfg ~tech:(Tech.default45 ~cap_limit:50_000. ())
          ~source:(Point.make 0 1_000_000) sinks
      in
      let initial = List.hd r.Core.Flow.trace in
      Ctree.Validate.check r.Core.Flow.tree = []
      && Core.Polarity.inverted_sinks r.Core.Flow.tree = []
      && r.Core.Flow.final.Ev.slew_violations = 0
      && r.Core.Flow.final.Ev.cap_ok
      && r.Core.Flow.final.Ev.skew <= initial.Core.Flow.skew +. 1e-6
      && Array.length (Ctree.Tree.sinks r.Core.Flow.tree) = n)

(* The slew-recovery plan computes slacks and headrooms once, before
   its apply rescales the stage drivers: sound only while both read
   topology, node kinds and the baseline evaluation, never drive
   strength. Pin that — and that the sensitivities, which the apply
   does recompute, do read it. *)
let test_slacks_ignore_buffer_rescale () =
  let bits_equal a b =
    Array.length a = Array.length b
    && Array.for_all2
         (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
         a b
  in
  List.iter
    (fun seed ->
      let sinks = random_sinks seed 30 3_000_000 in
      let tree, _, _, _ =
        Core.Flow.initial_tree ~config ~tech ~source:(Point.make 0 1_500_000)
          sinks
      in
      let ev = Ev.evaluate ~engine:Ev.Arnoldi tree in
      check_bool "multi-corner evaluation" true (List.length ev.Ev.runs >= 4);
      let analyse () =
        ( Core.Slack.combined ~multicorner:true tree ev,
          Core.Slack.combined tree ev,
          Core.Probes.subtree_slew_headroom tree ev,
          Core.Probes.sensitivities tree )
      in
      let mc0, nom0, head0, (sens0 : Core.Probes.sens) = analyse () in
      let buffers = Tree.buffer_ids tree in
      check_bool "tree has buffers" true (Array.length buffers > 0);
      Array.iteri
        (fun k id ->
          match (Tree.node tree id).Tree.kind with
          | Tree.Buffer b ->
            Tree.set_buffer tree id
              (Tech.Composite.scale b (if k mod 2 = 0 then 2. else 0.5))
          | _ -> ())
        buffers;
      let mc1, nom1, head1, (sens1 : Core.Probes.sens) = analyse () in
      let same_slack what (a : Core.Slack.t) (b : Core.Slack.t) =
        check_bool (what ^ " slow") true (bits_equal a.slow b.slow);
        check_bool (what ^ " fast") true (bits_equal a.fast b.fast);
        check_bool (what ^ " sink_slow") true (bits_equal a.sink_slow b.sink_slow);
        check_bool (what ^ " sink_fast") true (bits_equal a.sink_fast b.sink_fast)
      in
      same_slack "multi-corner slack" mc0 mc1;
      same_slack "nominal slack" nom0 nom1;
      check_bool "headroom unchanged" true (bits_equal head0 head1);
      check_bool "sensitivities follow drive strength" false
        (bits_equal sens0.snake_delay sens1.snake_delay
         && bits_equal sens0.size_delay sens1.size_delay))
    [ 4242; 77; 901 ]

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "core"
    [
      ("slack",
       [ Alcotest.test_case "definitions" `Quick test_slack_definitions;
         Alcotest.test_case "lemma 1" `Quick test_slack_lemma1;
         Alcotest.test_case "lemma 2" `Quick test_slack_lemma2;
         Alcotest.test_case "proposition 1" `Quick test_slack_proposition1;
         Alcotest.test_case "fast deltas" `Quick test_delta_fast;
         Alcotest.test_case "combined min" `Quick test_slack_combined_min;
         Alcotest.test_case "combined: cloned corners" `Quick
           test_slack_combined_cloned_corners ]);
      ("polarity",
       [ Alcotest.test_case "strategies correct" `Quick test_polarity_strategies_correct;
         Alcotest.test_case "minimal cheapest" `Quick test_polarity_minimal_cheapest;
         Alcotest.test_case "idempotent" `Quick test_polarity_one_per_path;
         Alcotest.test_case "marks = added" `Quick test_polarity_counts_match_marks;
         q polarity_qcheck ]);
      ("stage-balance",
       [ Alcotest.test_case "equalises" `Quick test_stage_balance;
         Alcotest.test_case "artificial deficit" `Quick test_stage_balance_artificial;
         Alcotest.test_case "noop when balanced" `Quick test_stage_balance_noop_when_balanced ]);
      ("probes",
       [ Alcotest.test_case "sensitivities" `Quick test_sensitivities_shape;
         Alcotest.test_case "calibration" `Quick test_probe_calibration;
         Alcotest.test_case "stage-aware headroom" `Quick test_slew_headroom_stage_aware;
         Alcotest.test_case "slacks ignore buffer rescale" `Quick
           test_slacks_ignore_buffer_rescale ]);
      ("ivc",
       [ Alcotest.test_case "rollback" `Quick test_ivc_rollback;
         Alcotest.test_case "accepts improvement" `Quick test_ivc_accepts_improvement;
         Alcotest.test_case "objectives" `Quick test_ivc_better ]);
      ("insertion",
       [ Alcotest.test_case "legal result" `Quick test_insertion_legal;
         Alcotest.test_case "candidate order" `Quick test_insertion_candidates_order;
         Alcotest.test_case "tried counter" `Quick test_insertion_tried_counter ]);
      ("optimizers",
       [ Alcotest.test_case "wiresnaking progress" `Quick test_wiresnaking_progress;
         Alcotest.test_case "wiresizing narrows" `Quick test_wiresizing_uses_narrow_classes ]);
      ("flow",
       [ Alcotest.test_case "end to end" `Slow test_flow_end_to_end;
         Alcotest.test_case "obstacle legality" `Slow test_flow_with_obstacles_legal_buffers;
         Alcotest.test_case "deterministic" `Slow test_flow_deterministic;
         Alcotest.test_case "multiwidth tech" `Slow test_flow_multiwidth;
         Alcotest.test_case "arnoldi engine" `Slow test_flow_arnoldi_engine;
         Alcotest.test_case "ablation flags legal" `Slow test_flow_ablation_flags;
         q flow_qcheck ]);
      ("buffers",
       [ Alcotest.test_case "trunk detection" `Quick test_trunk_detection;
         Alcotest.test_case "respace" `Quick test_respace_preserves;
         Alcotest.test_case "bottom buffers" `Quick test_bottom_buffers ]);
    ]

(* Calibrated surrogate ranking: OLS refit correctness against a
   closed-form fixture, ring-buffer recency, widening dynamics, the
   off-mode bit-identity guarantee, the width-independence of the
   ranked schedule, and the eval-budget/accuracy contract of ranking
   against the unranked lazy search. *)

module Tree = Ctree.Tree
module Ev = Analysis.Evaluator
module Surrogate = Analysis.Surrogate

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_near tol = Alcotest.(check (float tol))

(* ---------- OLS closed-form fixture ---------- *)

(* Samples generated exactly from a known linear law must be recovered
   exactly (up to the tiny conditioning ridge): the residual of a
   consistent over-determined system is zero, so the minimiser is the
   generating coefficient vector itself. *)
let test_ols_fixture () =
  let beta_true = [| 2.0; -3.0; 0.5; 0.0; 1.0; 0.0; 0.0; -1.0 |] in
  let bias_true = 0.25 in
  let rng = Suite.Rng.create 77 in
  let samples =
    Array.init 24 (fun _ ->
        let x =
          Array.init Surrogate.dim (fun _ ->
              (Suite.Rng.float rng *. 4.) -. 2.)
        in
        let y =
          bias_true
          +. Array.fold_left ( +. ) 0.
               (Array.mapi (fun j b -> b *. x.(j)) beta_true)
        in
        (x, y))
  in
  let beta = Surrogate.ols samples in
  check_int "one coefficient per feature plus bias" (Surrogate.dim + 1)
    (Array.length beta);
  Array.iteri
    (fun j b ->
      check_near 1e-4 (Printf.sprintf "coefficient %d recovered" j) b
        beta.(j))
    beta_true;
  check_near 1e-4 "bias recovered (last slot)" bias_true
    beta.(Surrogate.dim)

(* ---------- ring-buffer recency ---------- *)

(* After the generating law changes, a full window of fresh samples must
   displace the stale ones: the ring holds only the most recent
   [capacity] observations, so the refit tracks the new law. *)
let test_ring_recency () =
  let t = Surrogate.create () in
  let key = "ring-test" in
  let sample x0 = Array.init Surrogate.dim (fun j -> if j = 0 then x0 else 0.) in
  for i = 1 to 100 do
    let x0 = float_of_int (i mod 17) in
    Surrogate.observe t ~key (sample x0) x0
  done;
  (* More than one full window of the new law: the most recent refit
     must fit a window that holds new-regime samples only. *)
  for i = 1 to 72 do
    let x0 = float_of_int (i mod 13) in
    Surrogate.observe t ~key (sample x0) ((2. *. x0) +. 1.)
  done;
  match Surrogate.predict t ~key (sample 10.) with
  | None -> Alcotest.fail "model still cold after 164 observations"
  | Some (pred, trust) ->
    check_near 0.5 "prediction follows the recent regime" 21. pred;
    check_bool "trust radius is finite" true (Float.is_finite trust)

(* ---------- widening dynamics and the audit schedule ---------- *)

let test_widening_and_audit () =
  let t = Surrogate.create () in
  let key = "widen-test" in
  check_int "widening starts at zero" 0 (Surrogate.widening t ~key);
  Surrogate.note_mispredict t ~key;
  Surrogate.note_mispredict t ~key;
  check_int "each mispredict widens by one" 2 (Surrogate.widening t ~key);
  Surrogate.note_intrust t ~key;
  check_int "an in-trust win decays the widening" 1
    (Surrogate.widening t ~key);
  Surrogate.note_intrust t ~key;
  Surrogate.note_intrust t ~key;
  check_int "decay floors at zero" 0 (Surrogate.widening t ~key);
  let fired = ref [] in
  for i = 1 to 16 do
    if Surrogate.audit_hopeless t then fired := i :: !fired
  done;
  Alcotest.(check (list int))
    "audit fires on exactly every 8th hopeless round" [ 16; 8 ]
    !fired

(* ---------- probes: features and the session anchor ---------- *)

let seeded_tree seed =
  let rng = Suite.Rng.create seed in
  let sinks =
    Array.init 30 (fun i ->
        { Dme.Zst.pos =
            Geometry.Point.make (Suite.Rng.int rng 3_000_000)
              (Suite.Rng.int rng 3_000_000);
          cap = 5. +. (Suite.Rng.float rng *. 25.); parity = 0;
          label = Printf.sprintf "s%d" i })
  in
  let tree, _, _, _ =
    Core.Flow.initial_tree ~config:Core.Config.default
      ~tech:(Tech.default45 ()) ~source:(Geometry.Point.make 0 1_500_000)
      sinks
  in
  tree

(* Test-local reference: apply under a journal, capture every touched
   node's state, roll back, capture again, and sum the deltas. *)
let reference_features ~pos tree apply =
  let state id =
    if id < 0 || id >= Tree.size tree then (0., 0., 0., 0.)
    else begin
      let nd = Tree.node tree id in
      let len = float_of_int (Tree.wire_len nd) /. 1000. in
      let cap = Tree.wire_cap tree nd in
      match nd.Tree.kind with
      | Tree.Buffer b ->
        (len, cap, Tech.Composite.r_out b /. 1000., Tech.Composite.c_in b)
      | Tree.Source | Tree.Internal | Tree.Sink _ -> (len, cap, 0., 0.)
    end
  in
  let j = Tree.Journal.start tree in
  apply tree;
  let ids = Tree.Journal.touched j in
  let post = List.map state ids in
  Tree.Journal.rollback j;
  let pre = List.map state ids in
  let x = Array.make Surrogate.dim 0. in
  List.iter2
    (fun id ((al, ac, ar, ai), (bl, bc, br, bi)) ->
      let dlen = bl -. al and dcap = bc -. ac in
      let dr = br -. ar and dcin = bi -. ai in
      let p = pos id in
      x.(0) <- x.(0) +. dlen;
      x.(1) <- x.(1) +. dcap;
      x.(2) <- x.(2) +. dr;
      x.(3) <- x.(3) +. dcin;
      x.(4) <- x.(4) +. (p *. dlen);
      x.(5) <- x.(5) +. (p *. dcap);
      x.(6) <- x.(6) +. (p *. dr);
      x.(7) <- x.(7) +. (p *. ((bl *. bl) -. (al *. al))))
    ids (List.combine pre post);
  x

(* The probe's path: one post-edit snapshot, then the feature pass over
   the restored tree. *)
let probe_path_features ~pos tree apply =
  let j = Tree.Journal.start tree in
  apply tree;
  let ids = Tree.Journal.touched j in
  let post = Surrogate.snapshot tree ids in
  Tree.Journal.rollback j;
  Surrogate.edit_features ~pos ~ids ~post tree

let test_feature_oracle () =
  let bits x = Array.map Int64.bits_of_float x in
  List.iter
    (fun seed ->
      let tree = seeded_tree seed in
      let config = Core.Config.default in
      let ev = Ev.evaluate ~engine:Ev.Arnoldi tree in
      let pos = Surrogate.position_fn ev in
      let slacks = Core.Slack.combined ~multicorner:true tree ev in
      let headrooms = Core.Probes.subtree_slew_headroom tree ev in
      let sens = Core.Probes.sensitivities tree in
      let count = ref 0 and added = ref 0 in
      let sink = (Tree.sinks tree).(0) in
      let candidates =
        List.concat_map
          (fun scale ->
            [ ( "snake",
                fun t ->
                  Core.Wiresnaking.topdown_pass config t ~slacks ~headrooms
                    ~sens ~correction:1. ~scale ~count ~added );
              ( "size",
                fun t ->
                  Core.Wiresizing.downsizing_pass config t ~slacks ~headrooms
                    ~sens ~correction:1. ~scale ~count );
              ( "speed-up",
                fun t ->
                  Core.Buffer_sizing.speedup_pass config t ~slacks ~sens
                    ~scale ) ])
          (* The scale ladder of one adaptive round. *)
          [ 1.; 0.5; 0.25; 0.125 ]
        @ [ ( "buffer insertion",
              fun t ->
                let at = (Tree.node t sink).Tree.geom_len / 2 in
                ignore
                  (Tree.insert_buffer_on_wire t sink ~at
                     ~buf:(Tech.Composite.make Tech.Device.small_inverter 8))
            ) ]
      in
      List.iter
        (fun (name, apply) ->
          let expected = reference_features ~pos tree apply in
          let got = probe_path_features ~pos tree apply in
          Alcotest.(check (array int64))
            (Printf.sprintf "seed %d %s: features bit-identical" seed name)
            (bits expected) (bits got))
        candidates)
    [ 21; 22; 23 ]

(* A probe never reports its apply, so its rollback must be reported
   from the session's anchor: the next evaluation then takes the dirty
   path instead of a full re-extraction. *)
let test_probe_keeps_dirty_path () =
  let tree = seeded_tree 31 in
  let session = Ev.Incremental.create ~engine:Ev.Arnoldi tree in
  let hooks =
    { Core.Speculate.eval =
        (fun ?edits t -> Ev.Incremental.refresh ?edits ~tree:t session);
      note =
        (fun ~edits ~new_revision ->
          Ev.Incremental.note_edits session ~edits ~new_revision) }
  in
  let config =
    { Core.Config.scalability with
      Core.Config.spec = Some (Core.Speculate.serial ~main:tree ~hooks);
      surrogate = true;
      surrogate_state = Some (Surrogate.create ());
      speculation = 1 }
  in
  let baseline = Core.Ivc.evaluate config tree in
  let s0 = Ev.Incremental.stats session in
  let sink = (Tree.sinks tree).(0) in
  let snake t = Tree.set_snake t sink ((Tree.node t sink).Tree.snake + 20_000) in
  (* Cold model: one probe, then the warm-up scan's one evaluation. *)
  ignore
    (Core.Ivc.speculate config tree ~baseline ~objective:Core.Ivc.Skew
       [| snake |]);
  let s1 = Ev.Incremental.stats session in
  check_int "one evaluation" (s0.Ev.refreshes + 1) s1.Ev.refreshes;
  check_int "it took the dirty path" (s0.Ev.dirty_refreshes + 1)
    s1.Ev.dirty_refreshes

(* ---------- flow-level oracles ---------- *)

let run_flow ~surrogate ~speculation b =
  let config =
    { Core.Config.scalability with
      Core.Config.surrogate;
      speculation;
      rank_top = 0 }
  in
  Core.Flow.run ~config ~tech:b.Suite.Format_io.tech
    ~source:b.Suite.Format_io.source
    ~obstacles:b.Suite.Format_io.obstacles b.Suite.Format_io.sinks

(* surrogate = off must reproduce the unranked flow bit for bit — the
   flag alone (feature probes, state creation) cannot perturb anything. *)
let test_off_bit_identity () =
  let b = Suite.Runner.load_bench "ti:200" in
  let r1 = run_flow ~surrogate:false ~speculation:1 b in
  let r2 = run_flow ~surrogate:false ~speculation:1 b in
  check_bool "off-mode runs are bit-identical" true
    (Tree.digest r1.Core.Flow.tree = Tree.digest r2.Core.Flow.tree);
  check_int "off-mode eval counts are deterministic"
    r1.Core.Flow.eval_runs r2.Core.Flow.eval_runs;
  check_bool "off-mode run carries no surrogate stats" true
    (r1.Core.Flow.surrogate = None)

(* The ranked schedule is a pure function of (model state, features,
   measured results) — never of the speculation width — so surrogate-on
   runs must agree bit for bit AND eval for eval at widths 1 and 4. *)
let test_on_width_independence () =
  let b = Suite.Runner.load_bench "ti:200" in
  let r1 = run_flow ~surrogate:true ~speculation:1 b in
  let r4 = run_flow ~surrogate:true ~speculation:4 b in
  check_bool "ranked trees bit-identical across widths" true
    (Tree.digest r1.Core.Flow.tree = Tree.digest r4.Core.Flow.tree);
  check_int "ranked eval counts identical across widths"
    r1.Core.Flow.eval_runs r4.Core.Flow.eval_runs

(* Ranking must save evaluations across the Table V family (200-2000
   sinks) and stay within the quality tolerance of the unranked search
   on every instance (it may converge to a nearby optimum). Width 1 pins
   the unranked reference to the serial lazy scan, whose counts do not
   depend on the machine's core count. *)
let test_on_vs_off_budget () =
  let tol = 0.5 in
  let rows =
    List.map
      (fun n ->
        let b = Suite.Runner.load_bench (Printf.sprintf "ti:%d" n) in
        let off = run_flow ~surrogate:false ~speculation:1 b in
        let on = run_flow ~surrogate:true ~speculation:1 b in
        let name what = Printf.sprintf "ti:%d %s" n what in
        check_bool (name "final skew within tolerance of unranked") true
          (on.Core.Flow.final.Ev.skew <= off.Core.Flow.final.Ev.skew +. tol);
        check_bool (name "final CLR within tolerance of unranked") true
          (on.Core.Flow.final.Ev.clr <= off.Core.Flow.final.Ev.clr +. tol);
        (match on.Core.Flow.surrogate with
        | None -> Alcotest.fail (name "surrogate-on run lost its stats")
        | Some s ->
          check_bool (name "calibration observed measured pairs") true
            Surrogate.(s.observations > 0);
          check_bool (name "some rounds went through ranking") true
            Surrogate.(s.ranked_rounds > 0));
        (* Per instance only at ti:500; the budget over the family is
           the aggregate below (ti:2000 ranked spends a few more). *)
        if n = 500 then
          check_bool (name "ranking does not cost extra evaluations") true
            (on.Core.Flow.eval_runs <= off.Core.Flow.eval_runs);
        (off.Core.Flow.eval_runs, on.Core.Flow.eval_runs))
      [ 200; 500; 1_000; 2_000 ]
  in
  let total f = List.fold_left (fun a r -> a + f r) 0 rows in
  let off = total fst and on = total snd in
  check_bool
    (Printf.sprintf "ranked family within the 280-run budget (%d)" on)
    true (on <= 280);
  check_bool
    (Printf.sprintf "ranking saves at least 10%% of evaluations (%d -> %d)"
       off on)
    true
    (10 * (off - on) >= off)

(* The Pareto sweep's points share one family store, so later points
   reuse the stages and factorisations of earlier ones. *)
let test_pareto_store_reuse () =
  let b = Suite.Runner.load_bench "ti:500" in
  let sweep = Suite.Pareto.run ~jobs:0 ~config:Core.Config.scalability b in
  let rate = Suite.Pareto.hit_rate sweep in
  check_bool
    (Printf.sprintf "cross-point store hit rate above 0.5 (%.3f)" rate)
    true (rate > 0.5)

(* ---------- suite store-hit reporting ---------- *)

let test_suite_store_hits () =
  let out_dir = Filename.concat (Filename.get_temp_dir_name ()) "surro_suite" in
  let config = { Core.Config.scalability with Core.Config.speculation = 1 } in
  let r =
    Suite.Runner.run ~out_dir ~jobs:0 ~config
      [ Suite.Runner.spec_of_string "ti:60"; Suite.Runner.spec_of_string "ti:60" ]
  in
  let completed =
    List.filter_map
      (fun (ir : Suite.Runner.instance_report) ->
        match ir.Suite.Runner.status with
        | Suite.Runner.Completed c -> Some c
        | Suite.Runner.Failed _ -> None)
      r.Suite.Runner.reports
  in
  check_int "both instances completed" 2 (List.length completed);
  let hits =
    List.fold_left (fun a c -> a + c.Suite.Runner.store_hits) 0 completed
  in
  let misses =
    List.fold_left (fun a c -> a + c.Suite.Runner.store_misses) 0 completed
  in
  check_bool "identical twin instance hits the shared store" true (hits > 0);
  check_bool "store counters track traffic" true (hits + misses > 0);
  let json = Suite.Report.Json.to_string (Suite.Runner.to_json r) in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  check_bool "suite.json reports store hits" true
    (contains json "\"store_hits\"")

let () =
  Alcotest.run "surrogate"
    [
      ( "model",
        [
          Alcotest.test_case "OLS closed-form fixture" `Quick
            test_ols_fixture;
          Alcotest.test_case "ring-buffer recency" `Quick test_ring_recency;
          Alcotest.test_case "widening decay and audit schedule" `Quick
            test_widening_and_audit;
        ] );
      ( "probe",
        [
          Alcotest.test_case "features match the reference oracle" `Quick
            test_feature_oracle;
          Alcotest.test_case "probe keeps the session's dirty path" `Quick
            test_probe_keeps_dirty_path;
        ] );
      ( "flow",
        [
          Alcotest.test_case "surrogate off is bit-identical" `Quick
            test_off_bit_identity;
          Alcotest.test_case "ranked schedule is width-independent" `Quick
            test_on_width_independence;
          Alcotest.test_case "ranking saves evals within tolerance" `Quick
            test_on_vs_off_budget;
          Alcotest.test_case "pareto sweep reuses the family store" `Quick
            test_pareto_store_reuse;
        ] );
      ( "suite",
        [
          Alcotest.test_case "store hits reported per instance" `Quick
            test_suite_store_hits;
        ] );
    ]

(* Incremental-evaluation correctness: the session API must be bit-for-bit
   interchangeable with from-scratch evaluation through arbitrary edit
   sequences — the cache-correctness oracle — plus regression tests for
   the corner-identity and probe bugs fixed alongside it. *)

open Geometry
module Tree = Ctree.Tree
module Ev = Analysis.Evaluator

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_near tol = Alcotest.(check (float tol))

let tech = Tech.default45 ()
let buf8 = Tech.Composite.make Tech.Device.small_inverter 8

(* Source → buffer → branch point → two buffered subtrees, four sinks:
   enough stages that localized edits leave most of the tree untouched. *)
let rich_tree () =
  let t = Tree.create ~tech ~source_pos:(Point.make 0 0) in
  let a =
    Tree.add_node t ~kind:(Tree.Buffer buf8) ~pos:(Point.make 300_000 0)
      ~parent:(Tree.root t) ()
  in
  let mid =
    Tree.add_node t ~kind:Tree.Internal ~pos:(Point.make 600_000 0) ~parent:a ()
  in
  let b =
    Tree.add_node t ~kind:(Tree.Buffer buf8) ~pos:(Point.make 900_000 0)
      ~parent:mid ()
  in
  let c =
    Tree.add_node t ~kind:(Tree.Buffer buf8) ~pos:(Point.make 600_000 300_000)
      ~parent:mid ()
  in
  let sink label pos parent =
    ignore
      (Tree.add_node t ~kind:(Tree.Sink { Tree.cap = 15.; parity = 0; label })
         ~pos ~parent ())
  in
  sink "s1" (Point.make 1_200_000 0) b;
  sink "s2" (Point.make 900_000 300_000) b;
  sink "s3" (Point.make 600_000 600_000) c;
  sink "s4" (Point.make 900_000 450_000) c;
  t

let same_float a b =
  (Float.is_nan a && Float.is_nan b) || Float.abs (a -. b) <= 1e-9

let check_same_eval label (fresh : Ev.t) (inc : Ev.t) =
  let ok = ref true in
  let expect cond = if not cond then ok := false in
  expect (same_float fresh.Ev.skew inc.Ev.skew);
  expect (same_float fresh.Ev.skew_rise inc.Ev.skew_rise);
  expect (same_float fresh.Ev.skew_fall inc.Ev.skew_fall);
  expect (same_float fresh.Ev.clr inc.Ev.clr);
  expect (same_float fresh.Ev.t_min inc.Ev.t_min);
  expect (same_float fresh.Ev.t_max inc.Ev.t_max);
  expect (fresh.Ev.slew_violations = inc.Ev.slew_violations);
  expect (fresh.Ev.cap_ok = inc.Ev.cap_ok);
  expect (List.length fresh.Ev.runs = List.length inc.Ev.runs);
  List.iter2
    (fun (fr : Ev.run) (ir : Ev.run) ->
      expect (fr.Ev.corner.Tech.Corner.name = ir.Ev.corner.Tech.Corner.name);
      expect (fr.Ev.transition = ir.Ev.transition);
      expect (Array.length fr.Ev.latency = Array.length ir.Ev.latency);
      Array.iteri
        (fun i l -> expect (same_float l ir.Ev.latency.(i)))
        fr.Ev.latency;
      Array.iteri (fun i s -> expect (same_float s ir.Ev.slew.(i))) fr.Ev.slew)
    fresh.Ev.runs inc.Ev.runs;
  check_bool label true !ok

(* Apply one random structural or electrical edit. *)
let random_edit rng tree =
  let n_wires = Array.length tech.Tech.wires in
  let pick_wire_node () =
    (* any non-root node *)
    1 + Random.State.int rng (Tree.size tree - 1)
  in
  match Random.State.int rng 5 with
  | 0 ->
    let id = pick_wire_node () in
    Tree.set_snake tree id (Random.State.int rng 60_000)
  | 1 ->
    let id = pick_wire_node () in
    Tree.set_wire_class tree id (Random.State.int rng n_wires)
  | 2 -> (
    (* rescale a random existing buffer *)
    let bufs = Tree.buffer_ids tree in
    match Array.length bufs with
    | 0 -> ()
    | nb -> (
      let id = bufs.(Random.State.int rng nb) in
      match (Tree.node tree id).Tree.kind with
      | Tree.Buffer b ->
        let f = 0.5 +. Random.State.float rng 1.5 in
        Tree.set_buffer tree id (Tech.Composite.scale b f)
      | _ -> ()))
  | 3 ->
    (* insert a buffer mid-wire when the wire is long enough *)
    let id = pick_wire_node () in
    let nd = Tree.node tree id in
    if nd.Tree.geom_len > 20_000 then
      ignore
        (Tree.insert_buffer_on_wire tree id
           ~at:(10_000 + Random.State.int rng (nd.Tree.geom_len - 20_000))
           ~buf:buf8)
  | _ -> (
    (* remove a buffer, but keep at least two so stages remain *)
    let bufs = Tree.buffer_ids tree in
    if Array.length bufs > 2 then
      Tree.remove_buffer tree bufs.(Random.State.int rng (Array.length bufs)))

let oracle_for engine () =
  let tree = rich_tree () in
  let seg_len = 30_000 in
  let session = Ev.Incremental.create ~engine ~seg_len tree in
  let rng = Random.State.make [| 42 |] in
  let fresh0 = Ev.evaluate ~engine ~seg_len tree in
  check_same_eval "initial refresh matches evaluate" fresh0
    (Ev.Incremental.refresh session);
  for i = 1 to 25 do
    random_edit rng tree;
    let fresh = Ev.evaluate ~engine ~seg_len tree in
    let inc = Ev.Incremental.refresh session in
    check_same_eval (Printf.sprintf "edit %d matches" i) fresh inc
  done;
  let st = Ev.Incremental.stats session in
  check_bool "cache produced hits" true (st.Ev.hits > 0)

let test_oracle_spice () = oracle_for Ev.Spice ()
let test_oracle_arnoldi () = oracle_for Ev.Arnoldi ()

let test_refresh_after_copy_and_compact () =
  (* ?tree rebinding: caches are content-keyed, so a compacted clone (new
     node numbering) must still evaluate identically and mostly from
     cache. *)
  let tree = rich_tree () in
  let session = Ev.Incremental.create ~engine:Ev.Spice tree in
  ignore (Ev.Incremental.refresh session);
  let clone, _ = Tree.compact (Tree.copy tree) in
  let misses_before = (Ev.Incremental.stats session).Ev.misses in
  let inc = Ev.Incremental.refresh ~tree:clone session in
  let fresh = Ev.evaluate ~engine:Ev.Spice clone in
  check_same_eval "compacted clone matches" fresh inc;
  check_int "identical content re-solves nothing" misses_before
    (Ev.Incremental.stats session).Ev.misses

let test_parallel_matches_sequential () =
  let tree = rich_tree () in
  let seq = Ev.Incremental.create ~engine:Ev.Spice ~parallel:false tree in
  let par = Ev.Incremental.create ~engine:Ev.Spice ~parallel:true tree in
  check_same_eval "parallel = sequential"
    (Ev.Incremental.refresh seq)
    (Ev.Incremental.refresh par);
  Tree.set_snake tree 2 40_000;
  check_same_eval "after edit too"
    (Ev.Incremental.refresh seq)
    (Ev.Incremental.refresh par)

let test_fast_refresh_memo () =
  let tree = rich_tree () in
  let session = Ev.Incremental.create ~engine:Ev.Spice tree in
  ignore (Ev.Incremental.refresh session);
  ignore (Ev.Incremental.refresh session);
  ignore (Ev.Incremental.refresh session);
  let st = Ev.Incremental.stats session in
  check_int "3 refreshes" 3 st.Ev.refreshes;
  check_int "2 were memo hits" 2 st.Ev.fast_refreshes;
  (* Any mutation invalidates the memo... *)
  Tree.set_snake tree 2 10_000;
  ignore (Ev.Incremental.refresh session);
  check_int "edit forces a real refresh" 2
    (Ev.Incremental.stats session).Ev.fast_refreshes;
  (* ...including direct field writes flagged with [touch]. *)
  (Tree.node tree 2).Tree.snake <- 20_000;
  Tree.touch tree;
  let fresh = Ev.evaluate ~engine:Ev.Spice tree in
  check_same_eval "direct write + touch is seen" fresh
    (Ev.Incremental.refresh session)

let test_revision_counter () =
  let tree = rich_tree () in
  let r0 = Tree.revision tree in
  Tree.set_snake tree 2 1_000;
  check_bool "set_snake bumps" true (Tree.revision tree > r0);
  let r1 = Tree.revision tree in
  Tree.set_wire_class tree 2 0;
  Tree.set_buffer tree 1 buf8;
  ignore (Tree.insert_buffer_on_wire tree 2 ~at:50_000 ~buf:buf8);
  check_bool "mutators bump" true (Tree.revision tree >= r1 + 3);
  let copy = Tree.copy tree in
  check_int "copy preserves revision" (Tree.revision tree) (Tree.revision copy)

(* ---------- Engine agreement (satellite test) ---------- *)

let test_engines_agree_on_tree () =
  let tree = rich_tree () in
  let spice = Ev.evaluate ~engine:Ev.Spice tree in
  let arnoldi = Ev.evaluate ~engine:Ev.Arnoldi tree in
  let elmore = Ev.evaluate ~engine:Ev.Elmore_model tree in
  let rel a b = Float.abs (a -. b) /. Float.max b 1. in
  check_bool "arnoldi t_max within 12% of spice" true
    (rel arnoldi.Ev.t_max spice.Ev.t_max < 0.12);
  check_bool "arnoldi t_min within 12% of spice" true
    (rel arnoldi.Ev.t_min spice.Ev.t_min < 0.12);
  check_bool "elmore is pessimistic on latency" true
    (elmore.Ev.t_max > spice.Ev.t_max);
  (* Per-sink nominal latencies track between the accurate engines. *)
  let rs = Ev.nominal_run spice Ev.Rise and ra = Ev.nominal_run arnoldi Ev.Rise in
  Array.iter
    (fun s ->
      check_bool "per-sink latency tracks" true
        (rel ra.Ev.latency.(s) rs.Ev.latency.(s) < 0.12))
    spice.Ev.sinks

(* ---------- Corner structural identity (satellite bugfix) ---------- *)

let test_corner_structural_identity () =
  let tree = rich_tree () in
  let ev = Ev.evaluate ~engine:Ev.Arnoldi tree in
  (* Rebuild every run with a physically distinct but structurally equal
     corner record — with `==` matching this made nominal_run raise. *)
  let clone_corner (c : Tech.Corner.t) =
    { Tech.Corner.name = c.Tech.Corner.name; vdd = c.Tech.Corner.vdd;
      r_scale = c.Tech.Corner.r_scale; d_scale = c.Tech.Corner.d_scale }
  in
  let ev' =
    { ev with
      Ev.runs =
        List.map
          (fun (r : Ev.run) -> { r with Ev.corner = clone_corner r.Ev.corner })
          ev.Ev.runs }
  in
  let r = Ev.nominal_run ev' Ev.Rise in
  check_bool "nominal_run works on rebuilt corners" true
    (r.Ev.transition = Ev.Rise);
  let f = Ev.nominal_run ev' Ev.Fall in
  check_bool "fall too" true (f.Ev.transition = Ev.Fall)

(* ---------- Probe robustness (satellite bugfix) ---------- *)

let lumped_rc () =
  { Analysis.Rcnet.parent = [| -1; 0 |]; res = [| 0.; 1000. |];
    cap = [| 0.; 100. |]; taps = [| (1, Analysis.Rcnet.Tap_sink 7) |]; size = 2 }

let test_probe_unsorted_times () =
  let rc = lumped_rc () in
  let sorted = [| 50.; 100.; 200.; 400. |] in
  let shuffled = [| 200.; 50.; 400.; 100. |] in
  let vs =
    Analysis.Transient.probe ~step:0.05 rc ~r_drv:1e-3 ~s_drv:0.1 ~node:1
      ~times:sorted
  in
  let vu =
    Analysis.Transient.probe ~step:0.05 rc ~r_drv:1e-3 ~s_drv:0.1 ~node:1
      ~times:shuffled
  in
  check_near 1e-12 "t=200 matches" vs.(2) vu.(0);
  check_near 1e-12 "t=50 matches" vs.(0) vu.(1);
  check_near 1e-12 "t=400 matches" vs.(3) vu.(2);
  check_near 1e-12 "t=100 matches" vs.(1) vu.(3)

let test_probe_trailing_times () =
  (* tau = 100 ps: by t = 1500 ps the node has settled at ~1. Previously
     any probe time past the last crossing-driven step returned 0. *)
  let rc = lumped_rc () in
  let v =
    Analysis.Transient.probe ~step:0.05 rc ~r_drv:1e-3 ~s_drv:0.1 ~node:1
      ~times:[| 100.; 1500.; 1500.; 2000. |]
  in
  check_near 0.01 "settled value, not 0" 1.0 v.(1);
  check_near 1e-12 "duplicate trailing time" v.(1) v.(2);
  check_near 0.01 "far trailing time" 1.0 v.(3)

(* Regression: trace cache counters must be per-step deltas. The flow used
   to copy the session's cumulative totals into every entry, so later
   entries could only grow and summing the trace double-counted. With
   per-step deltas, a cheap step (TWSZ converges in a few rounds here)
   records fewer misses than the INITIAL full evaluation — impossible
   under the old cumulative semantics. *)
let test_trace_cache_deltas () =
  let b = Suite.Gen_grid.generate ~n:3 () in
  let config = { Core.Config.default with Core.Config.engine = Ev.Arnoldi } in
  let r =
    Core.Flow.run ~config ~tech:b.Suite.Format_io.tech
      ~source:b.Suite.Format_io.source b.Suite.Format_io.sinks
  in
  let trace = r.Core.Flow.trace in
  check_int "one entry per step" 5 (List.length trace);
  let initial = List.hd trace in
  check_int "first evaluation starts cold" 0 initial.Core.Flow.cache_hits;
  check_bool "INITIAL misses every stage" true
    (initial.Core.Flow.cache_misses > 0);
  check_bool "some later step records fewer misses than INITIAL" true
    (List.exists
       (fun (e : Core.Flow.trace_entry) ->
         e.Core.Flow.step <> Core.Flow.Initial
         && e.Core.Flow.cache_misses < initial.Core.Flow.cache_misses)
       trace);
  check_bool "later steps hit the cache" true
    (List.exists
       (fun (e : Core.Flow.trace_entry) -> e.Core.Flow.cache_hits > 0)
       trace)

(* Regression: the second-pass trigger threshold is configuration, not a
   hardcoded [skew > 5.]. Forcing the trigger (negative threshold) must
   run the TWSZ/TWSN/BWSN sequence again — strictly more evaluations than
   with the second pass disabled (infinite threshold). *)
let test_second_pass_threshold () =
  let b = Suite.Gen_grid.generate ~n:3 () in
  let run threshold =
    let config =
      { Core.Config.default with
        Core.Config.engine = Ev.Arnoldi;
        second_pass_skew_ps = threshold }
    in
    Core.Flow.run ~config ~tech:b.Suite.Format_io.tech
      ~source:b.Suite.Format_io.source b.Suite.Format_io.sinks
  in
  let disabled = run infinity in
  let forced = run (-1.) in
  check_bool "forced second pass spends more evaluations" true
    (forced.Core.Flow.eval_runs > disabled.Core.Flow.eval_runs);
  check_bool "second pass never worsens the final skew" true
    (forced.Core.Flow.final.Ev.skew
     <= disabled.Core.Flow.final.Ev.skew +. 1e-9)

(* ---------- Paired rise/fall marches ---------- *)

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* Bit-for-bit equality of two summaries, every run included. *)
let check_bits_eval label (a : Ev.t) (b : Ev.t) =
  let ok = ref true in
  let expect c = if not c then ok := false in
  List.iter
    (fun (x, y) -> expect (same_bits x y))
    [ (a.Ev.skew, b.Ev.skew); (a.Ev.skew_rise, b.Ev.skew_rise);
      (a.Ev.skew_fall, b.Ev.skew_fall); (a.Ev.clr, b.Ev.clr);
      (a.Ev.t_min, b.Ev.t_min); (a.Ev.t_max, b.Ev.t_max) ];
  expect (a.Ev.slew_violations = b.Ev.slew_violations);
  expect (List.length a.Ev.runs = List.length b.Ev.runs);
  List.iter2
    (fun (x : Ev.run) (y : Ev.run) ->
      expect (x.Ev.corner.Tech.Corner.name = y.Ev.corner.Tech.Corner.name);
      expect (x.Ev.transition = y.Ev.transition);
      Array.iteri
        (fun i l -> expect (same_bits l y.Ev.latency.(i)))
        x.Ev.latency;
      Array.iteri (fun i l -> expect (same_bits l y.Ev.slew.(i))) x.Ev.slew)
    a.Ev.runs b.Ev.runs;
  check_bool label true !ok

(* A whole serial flow under the default config (boxed Spice sessions,
   so every corner's rise and fall march in lockstep): the work counts
   and the final tree pinned to what the one-march-per-pass session
   produced. Pairing changes how stages are marched, never which. *)
let flow_counts spec ~eval_runs ~solves ~saved ~hits ~misses ~digest () =
  let b = Suite.Runner.load_bench spec in
  let config = { Core.Config.default with Core.Config.speculation = 1 } in
  let c0 = Analysis.Transient.counters () in
  let r =
    Core.Flow.run ~config ~tech:b.Suite.Format_io.tech
      ~source:b.Suite.Format_io.source ~obstacles:b.Suite.Format_io.obstacles
      b.Suite.Format_io.sinks
  in
  let c1 = Analysis.Transient.counters () in
  let sum f = List.fold_left (fun a e -> a + f e) 0 r.Core.Flow.trace in
  check_int "eval runs" eval_runs r.Core.Flow.eval_runs;
  check_int "transient solves" solves
    (c1.Analysis.Transient.total_solves - c0.Analysis.Transient.total_solves);
  check_int "transient saved" saved
    (c1.Analysis.Transient.total_saved - c0.Analysis.Transient.total_saved);
  check_int "transient truncations" 0
    (c1.Analysis.Transient.total_truncations
    - c0.Analysis.Transient.total_truncations);
  check_int "session hits" hits (sum (fun e -> e.Core.Flow.cache_hits));
  check_int "session misses" misses (sum (fun e -> e.Core.Flow.cache_misses));
  check_bool "tree digest" true
    (Int64.equal digest (Tree.digest r.Core.Flow.tree))

let test_flow_counts_ispd =
  flow_counts "ispd09f22" ~eval_runs:53 ~solves:297990 ~saved:9171
    ~hits:21888 ~misses:4308 ~digest:0xe0b2173b44f93c11L

let test_flow_counts_ti =
  flow_counts "ti:200" ~eval_runs:78 ~solves:275852 ~saved:4223 ~hits:24242
    ~misses:4462 ~digest:0x9c18f90fee7a42c8L

(* A parallel and a sequential paired session, each with its own shared
   store, through a run of edits: identical summaries and cache stats
   after every refresh. The first refresh also pins the store traffic of
   one-pass-at-a-time slots: where a corner's rise and fall keys
   coincide (the source stage) the fall lane finds the rise lane's
   published result in the store instead of solving it again. *)
let test_paired_parallel_sequential () =
  let b = Suite.Runner.load_bench "ti:200" in
  let tree, _, _, _ =
    Core.Flow.initial_tree ~tech:b.Suite.Format_io.tech
      ~source:b.Suite.Format_io.source b.Suite.Format_io.sinks
  in
  let session parallel =
    Ev.Incremental.create ~parallel
      ~store:(Ev.Store.handle (Ev.Store.create ()))
      tree
  in
  let seq = session false and par = session true in
  let step label =
    check_bits_eval label (Ev.Incremental.refresh seq)
      (Ev.Incremental.refresh par);
    let a = Ev.Incremental.stats seq and b = Ev.Incremental.stats par in
    check_bool (label ^ ": cache stats") true (a = b)
  in
  step "initial";
  let st = Ev.Incremental.stats seq in
  check_int "initial misses" 533 st.Ev.misses;
  check_int "initial store hits" 16 st.Ev.store_hits;
  check_int "initial store misses" 517 st.Ev.store_misses;
  let rng = Random.State.make [| 18 |] in
  for i = 1 to 12 do
    (match Random.State.int rng 2 with
    | 0 ->
      let id = 1 + Random.State.int rng (Tree.size tree - 1) in
      Tree.set_snake tree id (Random.State.int rng 40_000)
    | _ -> (
      let bufs = Tree.buffer_ids tree in
      let id = bufs.(Random.State.int rng (Array.length bufs)) in
      match (Tree.node tree id).Tree.kind with
      | Tree.Buffer bf ->
        Tree.set_buffer tree id
          (Tech.Composite.scale bf (0.6 +. Random.State.float rng 1.2))
      | _ -> ()));
    step (Printf.sprintf "edit %d" i)
  done

let () =
  Alcotest.run "incremental"
    [
      ( "oracle",
        [
          Alcotest.test_case "spice edit sequence" `Quick test_oracle_spice;
          Alcotest.test_case "arnoldi edit sequence" `Quick test_oracle_arnoldi;
          Alcotest.test_case "copy+compact rebind" `Quick
            test_refresh_after_copy_and_compact;
          Alcotest.test_case "parallel determinism" `Quick
            test_parallel_matches_sequential;
          Alcotest.test_case "fast-refresh memo" `Quick test_fast_refresh_memo;
          Alcotest.test_case "revision counter" `Quick test_revision_counter;
        ] );
      ( "engines",
        [ Alcotest.test_case "agreement" `Quick test_engines_agree_on_tree ] );
      ( "regressions",
        [
          Alcotest.test_case "corner identity" `Quick
            test_corner_structural_identity;
          Alcotest.test_case "probe unsorted" `Quick test_probe_unsorted_times;
          Alcotest.test_case "probe trailing" `Quick test_probe_trailing_times;
          Alcotest.test_case "trace cache deltas" `Quick
            test_trace_cache_deltas;
          Alcotest.test_case "second-pass threshold" `Quick
            test_second_pass_threshold;
        ] );
      ( "paired",
        [
          Alcotest.test_case "flow counts ispd09f22" `Quick
            test_flow_counts_ispd;
          Alcotest.test_case "flow counts ti:200" `Quick test_flow_counts_ti;
          Alcotest.test_case "parallel = sequential" `Quick
            test_paired_parallel_sequential;
        ] );
    ]

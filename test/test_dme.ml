open Geometry
module Topology = Dme.Topology

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let tech = Tech.default45 ()

let sinks_of_points pts =
  Array.of_list
    (List.mapi
       (fun i p -> { Dme.Zst.pos = p; cap = 10.; parity = 0; label = Printf.sprintf "s%d" i })
       pts)

let random_sinks seed n span =
  let rng = Suite.Rng.create seed in
  Array.init n (fun i ->
      { Dme.Zst.pos = Point.make (Suite.Rng.int rng span) (Suite.Rng.int rng span);
        cap = 5. +. Suite.Rng.float rng *. 25.; parity = 0;
        label = Printf.sprintf "s%d" i })

(* ---------- Topology ---------- *)

let test_topology_leaves () =
  let pts = Array.init 17 (fun i -> Point.make (i * 100) ((i * 37) mod 500)) in
  let topo = Topology.generate pts in
  check_int "size" 17 (Topology.size topo);
  let leaves = List.sort compare (Topology.leaves topo) in
  Alcotest.(check (list int)) "all leaves once" (List.init 17 Fun.id) leaves

let test_topology_balance () =
  (* Edahiro rounds halve cluster count: depth stays near log2 n. *)
  let pts = (random_sinks 3 128 1_000_000 |> Array.map (fun s -> s.Dme.Zst.pos)) in
  let topo = Topology.generate pts in
  let d = Topology.depth topo in
  check_bool "depth close to log2" true (d >= 7 && d <= 11)

(* [generate ~check] calls [check] every 256 nearest-neighbour queries:
   a quiet check leaves the topology as it was, and one that raises on
   its k-th call aborts generation with that exception. *)
let test_topology_check () =
  let pts = random_sinks 5 2000 1_000_000 |> Array.map (fun s -> s.Dme.Zst.pos) in
  let calls = ref 0 in
  let quiet = Topology.generate ~check:(fun () -> incr calls) pts in
  check_bool "a quiet check changes nothing" true
    (quiet = Topology.generate pts);
  check_bool "called during the rounds" true (!calls >= 2000 / 256);
  calls := 0;
  match
    Topology.generate
      ~check:(fun () ->
        incr calls;
        if !calls = 3 then raise Exit)
      pts
  with
  | _ -> Alcotest.fail "a raising check must abort generation"
  | exception Exit -> check_int "aborted on the 3rd call" 3 !calls

(* The grid is rebuilt as rounds shrink the live cluster count; the
   nearest-neighbour search is exact, so the topology must not move.
   Digests of the marshalled topologies, recorded before the regrid. *)
let test_topology_regrid_identical () =
  List.iter
    (fun (spec, expected) ->
      let b = Suite.Runner.load_bench spec in
      let positions =
        Array.map (fun s -> s.Dme.Zst.pos) b.Suite.Format_io.sinks
      in
      let topo = Topology.generate positions in
      Alcotest.(check string)
        (spec ^ " topology digest") expected
        (Digest.to_hex
           (Digest.string (Marshal.to_string topo [ Marshal.No_sharing ]))))
    [
      ("ti:8000", "e2925ee7e1f3c780cd976a6947ca7825");
      ("ti:20000", "bac43ac72a64a19d209c3ab7e429a132");
    ]

let test_topology_single () =
  check_bool "single sink" true (Topology.generate [| Point.make 5 5 |] = Topology.Leaf 0)

(* ---------- Merge: Tsay balance point ---------- *)

let test_merge_symmetric () =
  (* Two equal sinks: the tapping point is equidistant. *)
  let positions = [| Point.make 0 0; Point.make 1_000_000 0 |] in
  let caps = [| 10.; 10. |] in
  let wire = Tech.wire tech (Tech.widest_wire tech) in
  let m =
    Dme.Merge.bottom_up (Topology.Node (Topology.Leaf 0, Topology.Leaf 1))
      ~positions ~caps ~wire
  in
  (match m.Dme.Merge.shape with
  | Dme.Merge.Mnode (_, _, ea, eb) ->
    Alcotest.(check (float 1.)) "balanced split" ea eb;
    Alcotest.(check (float 1.)) "covers distance" 1_000_000. (ea +. eb)
  | Dme.Merge.Mleaf _ -> Alcotest.fail "expected a merge node");
  check_bool "region between sinks" true
    (Marc.dist_to_point m.Dme.Merge.region (Point.make 500_000 0) <= 1)

let test_merge_asymmetric_caps () =
  (* Heavier load on sink 1 pulls the tapping point towards it. *)
  let positions = [| Point.make 0 0; Point.make 1_000_000 0 |] in
  let caps = [| 5.; 200. |] in
  let wire = Tech.wire tech (Tech.widest_wire tech) in
  let m =
    Dme.Merge.bottom_up (Topology.Node (Topology.Leaf 0, Topology.Leaf 1))
      ~positions ~caps ~wire
  in
  match m.Dme.Merge.shape with
  | Dme.Merge.Mnode (_, _, ea, eb) ->
    check_bool "tap closer to heavy sink" true (ea > eb)
  | Dme.Merge.Mleaf _ -> Alcotest.fail "expected a merge node"

let test_merge_snaking () =
  (* Merge a slow two-sink subtree (long internal wire => real delay) with
     a nearby single sink: the fast side's edge must be elongated
     (snaked) beyond the geometric distance to preserve zero skew. *)
  let positions =
    [| Point.make 0 0; Point.make 2_000_000 0; Point.make 1_000_000 10_000 |]
  in
  let caps = [| 10.; 10.; 10. |] in
  let wire = Tech.wire tech (Tech.widest_wire tech) in
  let topo =
    Topology.Node (Topology.Node (Topology.Leaf 0, Topology.Leaf 1), Topology.Leaf 2)
  in
  let m = Dme.Merge.bottom_up topo ~positions ~caps ~wire in
  match m.Dme.Merge.shape with
  | Dme.Merge.Mnode (a, _, ea, eb) ->
    check_bool "slow side has delay" true (a.Dme.Merge.delay > 1.);
    check_bool "tap on slow side" true (ea = 0.);
    check_bool "fast side snaked beyond distance" true (eb > 10_000.)
  | Dme.Merge.Mleaf _ -> Alcotest.fail "expected a merge node"

let test_edge_delay_formula () =
  let wire = Tech.Wire.make ~name:"w" ~res_per_nm:1e-4 ~cap_per_nm:2e-4 in
  (* 1mm: R=100, C=200; into 50fF: 100*(100+50)*1e-3 = 15 ps *)
  Alcotest.(check (float 1e-9)) "edge delay" 15.
    (Dme.Merge.edge_delay ~wire ~len:1_000_000. ~load:50.)

(* ---------- End-to-end ZST ---------- *)

let elmore_skew tree =
  let ev = Analysis.Evaluator.evaluate ~engine:Analysis.Evaluator.Elmore_model tree in
  ev.Analysis.Evaluator.skew

let test_zst_zero_skew () =
  let sinks = random_sinks 11 60 4_000_000 in
  let tree = Dme.Zst.build ~tech ~source:(Point.make 0 2_000_000) sinks in
  Alcotest.(check (list string)) "validates" [] (Ctree.Validate.check tree);
  check_int "all sinks present" 60 (Array.length (Ctree.Tree.sinks tree));
  check_bool "near-zero elmore skew" true (elmore_skew tree < 1.0)

let test_zst_single_sink () =
  let sinks = sinks_of_points [ Point.make 1_000_000 1_000_000 ] in
  let tree = Dme.Zst.build ~tech ~source:(Point.make 0 0) sinks in
  check_int "one sink" 1 (Array.length (Ctree.Tree.sinks tree));
  Alcotest.(check (list string)) "validates" [] (Ctree.Validate.check tree)

let test_zst_coincident_sinks () =
  let p = Point.make 500_000 500_000 in
  let sinks = sinks_of_points [ p; p; p ] in
  let tree = Dme.Zst.build ~tech ~source:(Point.make 0 0) sinks in
  check_int "three sinks" 3 (Array.length (Ctree.Tree.sinks tree));
  check_bool "tiny skew" true (elmore_skew tree < 0.5)

let test_zst_rejects_empty () =
  Alcotest.check_raises "no sinks" (Invalid_argument "Zst.build: no sinks")
    (fun () -> ignore (Dme.Zst.build ~tech ~source:Point.origin [||]))

let test_zst_trunk () =
  (* A boundary source yields a trunk: the root has exactly one child. *)
  let sinks = random_sinks 23 40 3_000_000 in
  let tree = Dme.Zst.build ~tech ~source:(Point.make 0 1_500_000) sinks in
  check_int "single trunk" 1
    (List.length (Ctree.Tree.node tree (Ctree.Tree.root tree)).Ctree.Tree.children)

let test_bst_budget () =
  let sinks = random_sinks 31 50 4_000_000 in
  let zst = Dme.Zst.build ~tech ~source:(Point.make 0 0) sinks in
  let wl t = (Ctree.Stats.compute t).Ctree.Stats.wirelength in
  let prev_wl = ref (wl zst) in
  List.iter
    (fun budget ->
      let bst = Dme.Zst.build ~tech ~source:(Point.make 0 0) ~skew_budget:budget sinks in
      Alcotest.(check (list string)) "valid" [] (Ctree.Validate.check bst);
      (* construction skew stays within the budget (plus model slack) *)
      check_bool
        (Printf.sprintf "skew within budget %g" budget)
        true
        (elmore_skew bst <= budget +. 2.);
      (* a larger budget never costs wirelength *)
      check_bool "wirelength non-increasing" true (wl bst <= !prev_wl);
      prev_wl := wl bst)
    [ 5.; 20.; 100. ]

let test_bst_saves_snake () =
  (* The snaking construction of test_merge_snaking: a slow two-sink
     subtree merged with a nearby sink. With a generous budget the fast
     side's elongation is skipped (eb = d); with budget 0 it is snaked. *)
  let positions =
    [| Point.make 0 0; Point.make 2_000_000 0; Point.make 1_000_000 10_000 |]
  in
  let caps = [| 10.; 10.; 10. |] in
  let wire = Tech.wire tech (Tech.widest_wire tech) in
  let topo =
    Topology.Node (Topology.Node (Topology.Leaf 0, Topology.Leaf 1), Topology.Leaf 2)
  in
  let eb_of budget =
    match
      (Dme.Merge.bottom_up ~skew_budget:budget topo ~positions ~caps ~wire)
        .Dme.Merge.shape
    with
    | Dme.Merge.Mnode (_, _, _, eb) -> eb
    | Dme.Merge.Mleaf _ -> Alcotest.fail "expected merge node"
  in
  let strict = eb_of 0. and relaxed = eb_of 1e6 in
  check_bool "zst mode snakes" true (strict > 10_000.);
  check_bool "bst mode keeps geometric length" true (relaxed <= 10_000. +. 1.);
  (* The recorded spread reflects the absorbed imbalance. *)
  let m = Dme.Merge.bottom_up ~skew_budget:1e6 topo ~positions ~caps ~wire in
  check_bool "spread recorded" true
    (m.Dme.Merge.delay -. m.Dme.Merge.delay_min > 1.)

let tsay_balance_qcheck =
  QCheck.Test.make
    ~name:"merge: tapping point solves the Tsay balance equation" ~count:100
    QCheck.(quad (int_range 10 400) (int_range 10 400)
              (int_range 100_000 3_000_000) (int_range 0 1_000_000))
    (fun (ca, cb, dx, dy) ->
      let positions = [| Point.make 0 0; Point.make dx dy |] in
      let caps = [| float_of_int ca; float_of_int cb |] in
      let wire = Tech.wire tech (Tech.widest_wire tech) in
      let m =
        Dme.Merge.bottom_up
          (Topology.Node (Topology.Leaf 0, Topology.Leaf 1))
          ~positions ~caps ~wire
      in
      match m.Dme.Merge.shape with
      | Dme.Merge.Mnode (_, _, ea, eb) ->
        let da = Dme.Merge.edge_delay ~wire ~len:ea ~load:caps.(0) in
        let db = Dme.Merge.edge_delay ~wire ~len:eb ~load:caps.(1) in
        (* both leaves have zero internal delay: the edges must balance *)
        Float.abs (da -. db) < 0.05
        && Float.abs (ea +. eb -. float_of_int (dx + dy)) < 2.
      | Dme.Merge.Mleaf _ -> false)

let zst_qcheck =
  QCheck.Test.make ~name:"zst: random instances have sub-ps elmore skew"
    ~count:25
    QCheck.(pair (int_range 2 80) (int_range 0 1000))
    (fun (n, seed) ->
      let sinks = random_sinks seed n 3_000_000 in
      let tree = Dme.Zst.build ~tech ~source:(Point.make 0 0) sinks in
      Ctree.Validate.check tree = [] && elmore_skew tree < 1.0)

let zst_wirelength_qcheck =
  QCheck.Test.make
    ~name:"zst: wirelength at least the spanning lower bound, not absurd"
    ~count:20
    QCheck.(int_range 10 60)
    (fun n ->
      let sinks = random_sinks (n * 7) n 2_000_000 in
      let tree = Dme.Zst.build ~tech ~source:(Point.make 0 0) sinks in
      let stats = Ctree.Stats.compute tree in
      let span =
        Array.fold_left
          (fun acc s -> max acc (Point.dist Point.origin s.Dme.Zst.pos))
          0 sinks
      in
      stats.Ctree.Stats.wirelength >= span
      && stats.Ctree.Stats.wirelength < span * n)

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "dme"
    [
      ("topology",
       [ Alcotest.test_case "leaves" `Quick test_topology_leaves;
         Alcotest.test_case "balance" `Quick test_topology_balance;
         Alcotest.test_case "single" `Quick test_topology_single;
         Alcotest.test_case "check interrupts" `Quick test_topology_check;
         Alcotest.test_case "regrid keeps ti:8000/20000" `Slow
           test_topology_regrid_identical ]);
      ("merge",
       [ Alcotest.test_case "symmetric" `Quick test_merge_symmetric;
         Alcotest.test_case "asymmetric caps" `Quick test_merge_asymmetric_caps;
         Alcotest.test_case "snaking" `Quick test_merge_snaking;
         Alcotest.test_case "edge delay" `Quick test_edge_delay_formula;
         q tsay_balance_qcheck ]);
      ("zst",
       [ Alcotest.test_case "zero skew" `Quick test_zst_zero_skew;
         Alcotest.test_case "single sink" `Quick test_zst_single_sink;
         Alcotest.test_case "coincident sinks" `Quick test_zst_coincident_sinks;
         Alcotest.test_case "empty rejected" `Quick test_zst_rejects_empty;
         Alcotest.test_case "trunk" `Quick test_zst_trunk;
         Alcotest.test_case "bounded-skew budget" `Quick test_bst_budget;
         Alcotest.test_case "bounded-skew saves snake" `Quick test_bst_saves_snake;
         q zst_qcheck; q zst_wirelength_qcheck ]);
    ]

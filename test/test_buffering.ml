open Geometry
module Tree = Ctree.Tree

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let tech = Tech.default45 ()
let buf8 = Tech.Composite.make Tech.Device.small_inverter 8

(* One long line: source ---- 6mm ---- sink. *)
let long_line () =
  let t = Tree.create ~tech ~source_pos:(Point.make 0 0) in
  ignore
    (Tree.add_node t ~kind:(Tree.Sink { Tree.cap = 20.; parity = 0; label = "s" })
       ~pos:(Point.make 6_000_000 0) ~parent:(Tree.root t) ());
  t

let random_zst seed n =
  let rng = Suite.Rng.create seed in
  let sinks =
    Array.init n (fun i ->
        { Dme.Zst.pos = Point.make (Suite.Rng.int rng 5_000_000) (Suite.Rng.int rng 5_000_000);
          cap = 5. +. Suite.Rng.float rng *. 25.; parity = 0;
          label = Printf.sprintf "s%d" i })
  in
  Dme.Zst.build ~tech ~source:(Point.make 0 2_500_000) sinks

(* Check every driver's stage capacitance against a bound. *)
let max_stage_cap tree =
  List.fold_left
    (fun acc stage -> Float.max acc (Analysis.Rcnet.total_cap stage.Analysis.Rcnet.rc))
    0.
    (Analysis.Rcnet.stages tree)

let test_line_insertion () =
  let t = long_line () in
  let ceiling = 400. in
  let buffered = Buffering.Vanginneken.insert t ~buf:buf8 ~cap_ceiling:ceiling () in
  Alcotest.(check (list string)) "valid" [] (Ctree.Validate.check buffered);
  let n = Buffering.Vanginneken.last_inserted () in
  (* 6mm of wide wire = 1500 fF of wire cap: needs at least 3 buffers. *)
  check_bool "enough buffers" true (n >= 3);
  check_bool "stage caps within ceiling" true
    (max_stage_cap buffered <= ceiling +. 1.);
  check_bool "input tree untouched" true (Array.length (Tree.buffer_ids t) = 0)

let test_line_fast_matches_exact () =
  let t = long_line () in
  let exact = Buffering.Vanginneken.insert t ~buf:buf8 ~cap_ceiling:400. () in
  let fast = Buffering.Fast_vg.insert t ~buf:buf8 ~cap_ceiling:400. () in
  let delay tree =
    (Analysis.Evaluator.evaluate ~engine:Analysis.Evaluator.Elmore_model tree)
      .Analysis.Evaluator.t_max
  in
  let de = delay exact and df = delay fast in
  check_bool "fast within 10% of exact" true (Float.abs (df -. de) /. de < 0.10)

let test_tree_insertion () =
  let zst = random_zst 5 40 in
  let ceiling = 450. in
  let buffered = Buffering.Fast_vg.insert zst ~buf:buf8 ~cap_ceiling:ceiling () in
  Alcotest.(check (list string)) "valid" [] (Ctree.Validate.check buffered);
  check_bool "stage caps bounded" true (max_stage_cap buffered <= ceiling +. 1.);
  check_int "sinks preserved" 40 (Array.length (Tree.sinks buffered))

let test_infeasible_sink () =
  let t = Tree.create ~tech ~source_pos:(Point.make 0 0) in
  ignore
    (Tree.add_node t
       ~kind:(Tree.Sink { Tree.cap = 9999.; parity = 0; label = "huge" })
       ~pos:(Point.make 100_000 0) ~parent:(Tree.root t) ());
  check_bool "raises infeasible" true
    (try
       ignore (Buffering.Fast_vg.insert t ~buf:buf8 ~cap_ceiling:400. ());
       false
     with Buffering.Fast_vg.Infeasible _ -> true)

let test_rejects_buffered_input () =
  let t = long_line () in
  let buffered = Buffering.Fast_vg.insert t ~buf:buf8 ~cap_ceiling:400. () in
  check_bool "raises on double insertion" true
    (try
       ignore (Buffering.Fast_vg.insert buffered ~buf:buf8 ~cap_ceiling:400. ());
       false
     with Buffering.Fast_vg.Infeasible _ -> true)

let test_forbidden_region () =
  (* Buffers must avoid the obstacle band across the middle of the line. *)
  let obstacle = Rect.make ~lx:2_000_000 ~ly:(-500_000) ~hx:4_000_000 ~hy:500_000 in
  let t = long_line () in
  let forbidden p = Rect.contains_open obstacle p in
  let buffered =
    Buffering.Fast_vg.insert t ~buf:buf8 ~forbidden ~cap_ceiling:600. ()
  in
  Alcotest.(check (list int)) "no illegal buffers" []
    (Route.Repair.illegal_buffers buffered ~obstacles:[ obstacle ])

let test_polarity_oblivious () =
  (* Inverting buffers leave some sinks inverted; that is by design. *)
  let zst = random_zst 9 30 in
  let buffered = Buffering.Fast_vg.insert zst ~buf:buf8 ~cap_ceiling:450. () in
  let wrong = Core.Polarity.inverted_sinks buffered in
  check_bool "some sinks inverted" true (List.length wrong > 0)

let test_zero_length_edges () =
  (* Regression: stacked zero-length edges (coincident DME merge points)
     must still offer buffer positions, or dense trees become infeasible
     at any ceiling. *)
  let t = Tree.create ~tech ~source_pos:(Point.make 0 0) in
  let p = Point.make 1_000_000 0 in
  (* a chain of zero-length internal nodes at the same point, fanning out
     to loaded sinks *)
  let n1 = Tree.add_node t ~kind:Tree.Internal ~pos:p ~parent:(Tree.root t) () in
  let n2 = Tree.add_node t ~kind:Tree.Internal ~pos:p ~parent:n1 () in
  let n3 = Tree.add_node t ~kind:Tree.Internal ~pos:p ~parent:n2 () in
  List.iteri
    (fun i parent ->
      ignore
        (Tree.add_node t
           ~kind:(Tree.Sink { Tree.cap = 120.; parity = 0; label = Printf.sprintf "s%d" i })
           ~pos:(Point.make 1_050_000 (i * 50_000)) ~parent ()))
    [ n1; n2; n3; n3 ];
  (* Ceiling below the combined load: only buffers placed at the stacked
     zero-length edges can split it. *)
  let buffered = Buffering.Fast_vg.insert t ~buf:buf8 ~cap_ceiling:200. () in
  Alcotest.(check (list string)) "valid" [] (Ctree.Validate.check buffered);
  check_bool "stage caps bounded" true (max_stage_cap buffered <= 201.)

let buffers tree =
  let k = ref 0 in
  Tree.iter tree (fun nd ->
      match nd.Tree.kind with Tree.Buffer _ -> incr k | _ -> ());
  !k

(* [insert ~check] calls [check] every 256 solved nodes. A quiet check
   changes nothing; one that raises on its k-th call aborts the dynamic
   program with that exception, and the input tree stays unbuffered. *)
let test_check_interrupts () =
  let zst = random_zst 7 600 in
  let size0 = Tree.size zst in
  let insert ?check () =
    Buffering.Fast_vg.insert ?check zst ~buf:buf8 ~cap_ceiling:450. ()
  in
  let calls = ref 0 in
  let plain = insert () in
  let quiet = insert ~check:(fun () -> incr calls) () in
  check_int "a quiet check calls every 256 nodes" (size0 / 256) !calls;
  check_int "a quiet check changes nothing" (buffers plain) (buffers quiet);
  check_bool "the plain run buffers" true (buffers plain > 0);
  let k = 3 in
  calls := 0;
  (match
     insert
       ~check:(fun () ->
         incr calls;
         if !calls = k then raise Exit)
       ()
   with
  | _ -> Alcotest.fail "a raising check must abort the insertion"
  | exception Exit -> check_int "aborted on the k-th call" k !calls);
  check_int "input tree unbuffered" 0 (buffers zst);
  check_int "input tree unchanged" size0 (Tree.size zst)

let insertion_qcheck =
  QCheck.Test.make
    ~name:"vg: random trees stay valid, stage caps bounded, sinks kept"
    ~count:15
    QCheck.(pair (int_range 5 50) (int_range 0 1000))
    (fun (n, seed) ->
      let zst = random_zst seed n in
      let ceiling = 500. in
      match Buffering.Fast_vg.insert zst ~buf:buf8 ~cap_ceiling:ceiling () with
      | buffered ->
        Ctree.Validate.check buffered = []
        && Array.length (Tree.sinks buffered) = n
        && max_stage_cap buffered <= ceiling +. 1.
      | exception Buffering.Fast_vg.Infeasible _ -> true)

let buffer_count_qcheck =
  QCheck.Test.make ~name:"vg: tighter ceiling, more buffers" ~count:10
    QCheck.(int_range 0 500)
    (fun seed ->
      let zst = random_zst seed 30 in
      let count ceiling =
        ignore (Buffering.Fast_vg.insert zst ~buf:buf8 ~cap_ceiling:ceiling ());
        Buffering.Fast_vg.last_inserted ()
      in
      count 250. >= count 800.)

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "buffering"
    [
      ("van-ginneken",
       [ Alcotest.test_case "line insertion" `Quick test_line_insertion;
         Alcotest.test_case "fast matches exact" `Quick test_line_fast_matches_exact;
         Alcotest.test_case "tree insertion" `Quick test_tree_insertion;
         Alcotest.test_case "infeasible sink" `Quick test_infeasible_sink;
         Alcotest.test_case "double insertion rejected" `Quick test_rejects_buffered_input;
         Alcotest.test_case "forbidden region" `Quick test_forbidden_region;
         Alcotest.test_case "polarity oblivious" `Quick test_polarity_oblivious;
         Alcotest.test_case "zero-length edges" `Quick test_zero_length_edges;
         Alcotest.test_case "check interrupts" `Quick test_check_interrupts;
         q insertion_qcheck; q buffer_count_qcheck ]);
    ]

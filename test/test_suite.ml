open Geometry

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ---------- Rng ---------- *)

let test_rng_determinism () =
  let a = Suite.Rng.create 42 and b = Suite.Rng.create 42 in
  let seq g = List.init 50 (fun _ -> Suite.Rng.int g 1000) in
  Alcotest.(check (list int)) "same seed same stream" (seq a) (seq b);
  let c = Suite.Rng.create 43 in
  check_bool "different seed differs" true (seq (Suite.Rng.create 42) <> seq c)

let test_rng_ranges () =
  let g = Suite.Rng.create 1 in
  for _ = 1 to 1000 do
    let v = Suite.Rng.int g 7 in
    check_bool "in range" true (v >= 0 && v < 7);
    let f = Suite.Rng.float g in
    check_bool "float in [0,1)" true (f >= 0. && f < 1.)
  done

let test_rng_split () =
  let g = Suite.Rng.create 5 in
  let h = Suite.Rng.split g in
  check_bool "split independent-ish" true
    (List.init 10 (fun _ -> Suite.Rng.int g 100)
     <> List.init 10 (fun _ -> Suite.Rng.int h 100))

let rng_normal_qcheck =
  QCheck.Test.make ~name:"rng: normal has roughly zero mean, unit variance"
    ~count:5
    QCheck.(int_range 0 100)
    (fun seed ->
      let g = Suite.Rng.create seed in
      let n = 4000 in
      let xs = List.init n (fun _ -> Suite.Rng.normal g) in
      let mean = List.fold_left ( +. ) 0. xs /. float_of_int n in
      let var =
        List.fold_left (fun a x -> a +. ((x -. mean) ** 2.)) 0. xs
        /. float_of_int n
      in
      Float.abs mean < 0.1 && var > 0.8 && var < 1.2)

(* ---------- Format round-trip ---------- *)

let test_format_roundtrip () =
  let b = Suite.Gen_ispd.generate "ispd09f22" in
  let text = Suite.Format_io.to_string b in
  match Suite.Format_io.of_string ~name:b.Suite.Format_io.name text with
  | Error e -> Alcotest.fail e
  | Ok b2 ->
    check_int "sinks" (Array.length b.Suite.Format_io.sinks)
      (Array.length b2.Suite.Format_io.sinks);
    check_bool "chip" true (Rect.equal b.Suite.Format_io.chip b2.Suite.Format_io.chip);
    check_bool "source" true
      (Point.equal b.Suite.Format_io.source b2.Suite.Format_io.source);
    check_int "obstacles" (List.length b.Suite.Format_io.obstacles)
      (List.length b2.Suite.Format_io.obstacles);
    Alcotest.(check (float 1e-9)) "cap limit"
      b.Suite.Format_io.tech.Tech.cap_limit b2.Suite.Format_io.tech.Tech.cap_limit;
    (* Sink payloads survive. *)
    Array.iteri
      (fun i s ->
        let s2 = b2.Suite.Format_io.sinks.(i) in
        check_bool "pos" true (Point.equal s.Dme.Zst.pos s2.Dme.Zst.pos);
        Alcotest.(check (float 1e-6)) "cap" s.Dme.Zst.cap s2.Dme.Zst.cap)
      b.Suite.Format_io.sinks

let test_format_errors () =
  check_bool "unknown directive" true
    (Result.is_error (Suite.Format_io.of_string ~name:"x" "bogus 1 2 3"));
  check_bool "missing chip" true
    (Result.is_error (Suite.Format_io.of_string ~name:"x" "source 0 0\nsink a 1 1 5"));
  check_bool "no sinks" true
    (Result.is_error
       (Suite.Format_io.of_string ~name:"x" "chip 0 0 10 10\nsource 0 0"));
  check_bool "bad number" true
    (Result.is_error
       (Suite.Format_io.of_string ~name:"x" "chip 0 0 ten 10\nsource 0 0\nsink a 1 1 5"))

let test_format_comments_defaults () =
  let text = "# a comment\nchip 0 0 1000 1000\nsource 0 0\n\nsink a 10 10 5.5\n" in
  match Suite.Format_io.of_string ~name:"mini" text with
  | Error e -> Alcotest.fail e
  | Ok b ->
    check_int "one sink" 1 (Array.length b.Suite.Format_io.sinks);
    (* Defaults: contest tech, unlimited cap. *)
    check_bool "default tech" true
      (Array.length b.Suite.Format_io.tech.Tech.wires = 2);
    check_bool "unlimited" true (b.Suite.Format_io.tech.Tech.cap_limit = infinity)

(* ---------- Generators ---------- *)

let test_ispd_names_and_counts () =
  check_int "seven benchmarks" 7 (List.length Suite.Gen_ispd.names);
  let expected =
    [ ("ispd09f11", 121); ("ispd09f12", 117); ("ispd09f21", 117);
      ("ispd09f22", 91); ("ispd09f31", 273); ("ispd09f32", 190);
      ("ispd09fnb1", 330) ]
  in
  List.iter
    (fun (name, n) ->
      let b = Suite.Gen_ispd.generate name in
      check_int name n (Array.length b.Suite.Format_io.sinks))
    expected

let test_ispd_deterministic () =
  let a = Suite.Gen_ispd.generate "ispd09f31" in
  let b = Suite.Gen_ispd.generate "ispd09f31" in
  Alcotest.(check string) "identical files"
    (Suite.Format_io.to_string a) (Suite.Format_io.to_string b)

let test_ispd_sinks_legal () =
  List.iter
    (fun name ->
      let b = Suite.Gen_ispd.generate name in
      Array.iter
        (fun s ->
          check_bool "sink on chip" true
            (Rect.contains b.Suite.Format_io.chip s.Dme.Zst.pos);
          check_bool "sink not inside obstacle" true
            (not
               (List.exists
                  (fun r -> Rect.contains_open r s.Dme.Zst.pos)
                  b.Suite.Format_io.obstacles)))
        b.Suite.Format_io.sinks)
    Suite.Gen_ispd.names

let test_ispd_obstacles () =
  let b = Suite.Gen_ispd.generate "ispd09fnb1" in
  check_bool "fnb1 has blockages" true (List.length b.Suite.Format_io.obstacles >= 12);
  let f11 = Suite.Gen_ispd.generate "ispd09f11" in
  check_int "f11 clean" 0 (List.length f11.Suite.Format_io.obstacles);
  check_bool "unknown rejected" true
    (try ignore (Suite.Gen_ispd.generate "nope"); false
     with Invalid_argument _ -> true)

let test_ti_generator () =
  check_int "135K candidate sites" 135_000 Suite.Gen_ti.candidate_count;
  let b = Suite.Gen_ti.generate 500 in
  check_int "sampled" 500 (Array.length b.Suite.Format_io.sinks);
  Array.iter
    (fun s ->
      check_bool "on die" true (Rect.contains b.Suite.Format_io.chip s.Dme.Zst.pos))
    b.Suite.Format_io.sinks;
  (* Deterministic. *)
  let b2 = Suite.Gen_ti.generate 500 in
  Alcotest.(check string) "deterministic"
    (Suite.Format_io.to_string b) (Suite.Format_io.to_string b2);
  check_bool "family ends at 50K" true
    (List.nth Suite.Gen_ti.family (List.length Suite.Gen_ti.family - 1) = 50_000);
  check_bool "rejects out of range" true
    (try ignore (Suite.Gen_ti.generate 0); false with Invalid_argument _ -> true)

let ti_sampling_qcheck =
  QCheck.Test.make ~name:"ti: samples are distinct sites" ~count:5
    QCheck.(int_range 50 400)
    (fun n ->
      let b = Suite.Gen_ti.generate n in
      let labels =
        Array.to_list (Array.map (fun s -> s.Dme.Zst.label) b.Suite.Format_io.sinks)
      in
      List.length (List.sort_uniq compare labels) = n)

(* The all-sites generator [Gen_ti.generate] replaced, kept verbatim as
   its oracle: lay out every candidate site from one stream in index
   order and keep the Floyd-chosen ones. If [Gen_ti]'s site draw count
   or warp ever changes, this copy must change with it. *)
let oracle_ti n =
  let open Suite in
  let rows = 450 and cols = 300 in
  let die_w = 4_200_000 and die_h = 3_000_000 in
  let site rng idx =
    let r = idx / cols and c = idx mod cols in
    let fx = (float_of_int c +. 0.5) /. float_of_int cols in
    let fy = (float_of_int r +. 0.5) /. float_of_int rows in
    let warp f centre strength =
      f +. (strength *. sin ((f -. centre) *. Float.pi))
    in
    let fx = warp fx 0.3 0.08 and fy = warp fy 0.6 0.06 in
    let jitter scale = int_of_float (Rng.normal rng *. scale) in
    let clamp v hi = min (max v 0) hi in
    Point.make
      (clamp (int_of_float (fx *. float_of_int die_w) + jitter 2_000.) die_w)
      (clamp (int_of_float (fy *. float_of_int die_h) + jitter 2_000.) die_h)
  in
  let candidate_count = rows * cols in
  let rng = Rng.create (0x71 + n) in
  let chosen = Hashtbl.create (2 * n) in
  for j = candidate_count - n to candidate_count - 1 do
    let t = Rng.int rng (j + 1) in
    if Hashtbl.mem chosen t then Hashtbl.replace chosen j ()
    else Hashtbl.replace chosen t ()
  done;
  let site_rng = Rng.create 0x7151 in
  let sinks = ref [] in
  for idx = 0 to candidate_count - 1 do
    let p = site site_rng idx in
    if Hashtbl.mem chosen idx then
      sinks :=
        { Dme.Zst.label = Printf.sprintf "ff%d" idx; pos = p;
          cap = 2. +. (Rng.float rng *. 4.); parity = 0 }
        :: !sinks
  done;
  Array.of_list (List.rev !sinks)

let test_ti_matches_oracle () =
  let sizes =
    Suite.Gen_ti.family
    @ [ 1; 150; Suite.Gen_ti.candidate_count ]
    @ List.init 31 (fun i -> 100 + i)
  in
  List.iter
    (fun n ->
      let got = (Suite.Gen_ti.generate n).Suite.Format_io.sinks in
      let want = oracle_ti n in
      let ctx what = Printf.sprintf "ti%d %s" n what in
      check_int (ctx "count") (Array.length want) (Array.length got);
      Array.iteri
        (fun i (w : Dme.Zst.sink_spec) ->
          let g = got.(i) in
          Alcotest.(check string) (ctx "label") w.label g.Dme.Zst.label;
          check_bool (ctx "position") true (Point.equal w.pos g.Dme.Zst.pos);
          Alcotest.(check int64) (ctx "cap bits")
            (Int64.bits_of_float w.cap) (Int64.bits_of_float g.Dme.Zst.cap);
          check_int (ctx "parity") w.parity g.Dme.Zst.parity)
        want)
    sizes

let rng_jump_qcheck =
  QCheck.Test.make ~name:"rng: jump by k equals k single draws" ~count:200
    QCheck.(pair int (int_range 0 64))
    (fun (seed, k) ->
      let stepped = Suite.Rng.create seed and jumped = Suite.Rng.create seed in
      for _ = 1 to k do
        ignore (Suite.Rng.float stepped)
      done;
      Suite.Rng.jump jumped k;
      List.init 8 (fun _ -> Suite.Rng.int stepped max_int)
      = List.init 8 (fun _ -> Suite.Rng.int jumped max_int))

let test_grid_generator () =
  let b = Suite.Gen_grid.generate ~n:4 () in
  check_int "16 sinks" 16 (Array.length b.Suite.Format_io.sinks);
  check_bool "rejects n=0" true
    (try ignore (Suite.Gen_grid.generate ~n:0 ()); false
     with Invalid_argument _ -> true)

let test_grid_symmetric_skew () =
  (* Perfect symmetry: the unbuffered ZST over a grid must have near-zero
     Elmore skew despite massive tie-breaking freedom. *)
  let b = Suite.Gen_grid.generate ~n:6 () in
  let t =
    Dme.Zst.build ~tech:b.Suite.Format_io.tech ~source:b.Suite.Format_io.source
      b.Suite.Format_io.sinks
  in
  let skew =
    (Analysis.Evaluator.evaluate ~engine:Analysis.Evaluator.Elmore_model t)
      .Analysis.Evaluator.skew
  in
  check_bool "grid zst sub-ps" true (skew < 1.0);
  Alcotest.(check (list string)) "valid" [] (Ctree.Validate.check t)

(* ---------- Baseline ---------- *)

let test_baseline_runs () =
  let b = Suite.Gen_ispd.generate "ispd09f22" in
  let r = Suite.Baseline.run b in
  check_int "slew legal" 0 r.Suite.Baseline.eval.Analysis.Evaluator.slew_violations;
  check_bool "unoptimized skew is large" true
    (r.Suite.Baseline.eval.Analysis.Evaluator.skew > 20.);
  Alcotest.(check (list string)) "valid tree" []
    (Ctree.Validate.check r.Suite.Baseline.tree)

(* A spent budget stops the baseline before it evaluates anything. *)
let test_baseline_deadline () =
  let b = Suite.Gen_grid.generate ~n:3 () in
  let config =
    { Core.Config.default with
      Core.Config.deadline = Some (Core.Monoclock.now () -. 1.) }
  in
  let evals = Analysis.Evaluator.eval_count () in
  (match Suite.Baseline.run ~config b with
  | _ -> Alcotest.fail "expected Deadline_exceeded"
  | exception Core.Ivc.Deadline_exceeded -> ());
  check_int "no evaluation spent" evals (Analysis.Evaluator.eval_count ())

let test_format_file_roundtrip () =
  let b = Suite.Gen_grid.generate ~n:3 () in
  let path = Filename.temp_file "contango" ".cts" in
  Suite.Format_io.write_file path b;
  let b2 =
    match Suite.Format_io.read_file path with
    | Ok b2 -> b2
    | Error e -> Alcotest.failf "read_file: %s" e
  in
  Sys.remove path;
  check_int "sinks survive file" (Array.length b.Suite.Format_io.sinks)
    (Array.length b2.Suite.Format_io.sinks);
  check_bool "source survives" true
    (Point.equal b.Suite.Format_io.source b2.Suite.Format_io.source)

(* ---------- Json ---------- *)

let contains_sub hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let test_json_basic () =
  let open Suite.Report.Json in
  let v =
    Obj
      [ ("name", Str "f1"); ("n", Num 42.); ("ok", Bool true);
        ("x", Num nan); ("rows", List [ Num 1.5; Null ]) ]
  in
  let s = to_string v in
  check_bool "string field" true (contains_sub s "\"name\": \"f1\"");
  check_bool "integer printed plain" true (contains_sub s "\"n\": 42");
  check_bool "nan becomes null" true (contains_sub s "\"x\": null");
  check_bool "bool" true (contains_sub s "true");
  check_bool "nested list" true (contains_sub s "1.5")

let test_json_escape () =
  let open Suite.Report.Json in
  let s = to_string (Str "a\"b\\c\nd") in
  check_bool "quote escaped" true (contains_sub s "a\\\"b");
  check_bool "backslash escaped" true (contains_sub s "\\\\c");
  check_bool "newline escaped" true (contains_sub s "\\n")

(* ---------- Report ---------- *)

let test_report_table () =
  let s =
    Suite.Report.table ~title:"T" ~header:[ "a"; "bb" ]
      [ [ "1"; "2" ]; [ "333"; "4" ] ]
  in
  check_bool "contains title" true (String.length s > 10 && String.sub s 0 1 = "T");
  check_bool "has separator" true (String.contains s '-')

let test_paper_constants () =
  check_int "table3 has 5 steps" 5 (List.length Suite.Report.paper_table3);
  List.iter
    (fun (_, row) -> check_int "7 benchmarks per row" 7 (List.length row))
    Suite.Report.paper_table3;
  check_int "table4 rows" 7 (List.length Suite.Report.paper_table4);
  check_int "table5 rows" 8 (List.length Suite.Report.paper_table5);
  check_int "table2 rows" 7 (List.length Suite.Report.paper_table2);
  check_int "table1 rows" 5 (List.length Suite.Report.paper_table1);
  (* Spot values from the paper. *)
  let _, fnb1 = List.nth Suite.Report.paper_table2 6 in
  check_int "fnb1 inverted" 153 (fst fnb1);
  check_int "fnb1 added" 2 (snd fnb1)

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "suite"
    [
      ("rng",
       [ Alcotest.test_case "determinism" `Quick test_rng_determinism;
         Alcotest.test_case "ranges" `Quick test_rng_ranges;
         Alcotest.test_case "split" `Quick test_rng_split;
         q rng_normal_qcheck;
         q rng_jump_qcheck ]);
      ("format",
       [ Alcotest.test_case "roundtrip" `Quick test_format_roundtrip;
         Alcotest.test_case "file roundtrip" `Quick test_format_file_roundtrip;
         Alcotest.test_case "errors" `Quick test_format_errors;
         Alcotest.test_case "comments/defaults" `Quick test_format_comments_defaults ]);
      ("gen-ispd",
       [ Alcotest.test_case "names/counts" `Quick test_ispd_names_and_counts;
         Alcotest.test_case "deterministic" `Quick test_ispd_deterministic;
         Alcotest.test_case "sinks legal" `Quick test_ispd_sinks_legal;
         Alcotest.test_case "obstacles" `Quick test_ispd_obstacles ]);
      ("gen-ti",
       [ Alcotest.test_case "generator" `Quick test_ti_generator;
         Alcotest.test_case "matches all-sites oracle" `Quick
           test_ti_matches_oracle;
         q ti_sampling_qcheck ]);
      ("gen-grid",
       [ Alcotest.test_case "generator" `Quick test_grid_generator;
         Alcotest.test_case "symmetric skew" `Quick test_grid_symmetric_skew ]);
      ("baseline",
       [ Alcotest.test_case "runs" `Slow test_baseline_runs;
         Alcotest.test_case "spent deadline" `Quick test_baseline_deadline ]);
      ("report",
       [ Alcotest.test_case "table" `Quick test_report_table;
         Alcotest.test_case "json" `Quick test_json_basic;
         Alcotest.test_case "json escapes" `Quick test_json_escape;
         Alcotest.test_case "paper constants" `Quick test_paper_constants ]);
    ]

(* Suite runner: fault isolation, telemetry streaming, baseline gating. *)

module Runner = Suite.Runner
module Json = Suite.Report.Json

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let arnoldi_config =
  { Core.Config.default with Core.Config.engine = Analysis.Evaluator.Arnoldi }

let temp_dir () = Filename.temp_dir "contango_suite" ""

let read_lines path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | line -> go (line :: acc)
        | exception End_of_file -> List.rev acc
      in
      go [])

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i =
    i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1))
  in
  go 0

let status_label (r : Runner.instance_report) =
  match r.Runner.status with
  | Runner.Completed _ -> "completed"
  | Runner.Failed { reason = Runner.Crashed; _ } -> "crashed"
  | Runner.Failed { reason = Runner.Timed_out; _ } -> "timed_out"

(* ---------- spec parsing ---------- *)

let test_spec_parsing () =
  (match Runner.spec_of_string "fail:boom" with
  | Runner.Inject_fail "boom" -> ()
  | _ -> Alcotest.fail "fail:boom");
  (match Runner.spec_of_string "hang:spin" with
  | Runner.Inject_hang "spin" -> ()
  | _ -> Alcotest.fail "hang:spin");
  (match Runner.spec_of_string "grid:3" with
  | Runner.Bench b ->
    check_int "grid:3 sinks" 9 (Array.length b.Suite.Format_io.sinks)
  | _ -> Alcotest.fail "grid:3 should load a benchmark");
  (* spec_of_string never raises: an unloadable spec becomes a
     structured Bad_spec that the suite reports as a Crashed instance. *)
  check_bool "garbage spec becomes Bad_spec" true
    (match Runner.spec_of_string "no-such-bench" with
    | Runner.Bad_spec { bs_name = "no-such-bench"; _ } -> true
    | _ -> false);
  Fuzz.never_raises "spec_of_string" Runner.spec_of_string
    (Fuzz.inputs ~seed:12 ~count:300
       [ "fail:boom"; "hang:spin"; "ti:3"; "grid:2"; "ti:-5"; "ispd09f11" ])

(* ---------- fault isolation (the tentpole acceptance scenario) ---------- *)

let test_fault_isolation () =
  let out_dir = temp_dir () in
  let specs =
    List.map Runner.spec_of_string [ "grid:3"; "fail:boom"; "hang:spin" ]
  in
  let result =
    Runner.run ~out_dir ~timeout:0.5 ~jobs:0 ~config:arnoldi_config specs
  in
  check_int "three reports, input order" 3 (List.length result.Runner.reports);
  Alcotest.(check (list string))
    "statuses"
    [ "completed"; "crashed"; "timed_out" ]
    (List.map status_label result.Runner.reports);
  check_int "exactly two failure records" 2
    (List.length (Runner.failures result));
  let completed =
    List.find
      (fun r -> match r.Runner.status with
        | Runner.Completed _ -> true | _ -> false)
      result.Runner.reports
  in
  check_int "completed instance ran the full flow" 5
    (List.length completed.Runner.steps);
  (* The crash detail is a structured record, not a lost exception. *)
  (match (List.hd (Runner.failures result)).Runner.status with
  | Runner.Failed { detail; _ } ->
    check_bool "crash detail mentions the failure" true
      (String.length detail > 0)
  | _ -> Alcotest.fail "expected a failure record");
  (* suite.json is written and parseable even though two instances died. *)
  let path = Runner.write_suite_json result in
  check_string "suite.json location" (Filename.concat out_dir "suite.json") path;
  (match Json.of_string (String.concat "\n" (read_lines path)) with
  | Error e -> Alcotest.fail ("suite.json does not parse: " ^ e)
  | Ok doc ->
    check_int "suite.json has all three instances" 3
      (List.length (Json.to_list (Json.member "instances" doc)));
    let failed =
      Json.to_float (Json.member "failed" (Option.get (Json.member "suite" doc)))
    in
    Alcotest.(check (option (float 0.))) "failed count" (Some 2.) failed);
  (* Streamed telemetry: one parseable JSONL line per completed step. *)
  let lines = read_lines completed.Runner.trace_path in
  check_int "five trace lines" 5 (List.length lines);
  List.iter
    (fun line ->
      match Json.of_string line with
      | Error e -> Alcotest.fail ("trace line does not parse: " ^ e)
      | Ok obj ->
        check_bool "trace line has a step" true
          (Json.to_str (Json.member "step" obj) <> None);
        check_bool "trace line is tagged with the bench" true
          (Json.to_str (Json.member "bench" obj) = Some "grid3x3"))
    lines;
  (* Summary renders every instance, including the failed ones. *)
  let table = Runner.summary_table result in
  List.iter
    (fun needle ->
      check_bool (needle ^ " in summary") true (contains table needle))
    [ "grid3x3"; "boom"; "spin" ]

(* A real benchmark (not an injected hang) past its budget is recorded as
   timed out via the cooperative deadline in Ivc.evaluate. *)
let test_real_bench_timeout () =
  let out_dir = temp_dir () in
  let result =
    Runner.run ~out_dir ~timeout:1e-5 ~jobs:0 ~config:arnoldi_config
      [ Runner.spec_of_string "grid:4" ]
  in
  match (List.hd result.Runner.reports).Runner.status with
  | Runner.Failed { reason = Runner.Timed_out; _ } -> ()
  | Runner.Failed { reason = Runner.Crashed; detail } ->
    Alcotest.fail ("expected timeout, crashed: " ^ detail)
  | Runner.Completed _ ->
    Alcotest.fail "expected timeout, completed under 10us"

(* A hang instance without any timeout cannot be run — structured failure,
   not a stuck suite. *)
let test_hang_requires_timeout () =
  let out_dir = temp_dir () in
  let result =
    Runner.run ~out_dir ~jobs:0 ~config:arnoldi_config
      [ Runner.Inject_hang "spin" ]
  in
  match (List.hd result.Runner.reports).Runner.status with
  | Runner.Failed { reason = Runner.Crashed; _ } -> ()
  | _ -> Alcotest.fail "expected a crash record"

(* Instances keep their input order and distinct trace files even when the
   same benchmark is listed twice. *)
let test_duplicate_names () =
  let out_dir = temp_dir () in
  let specs = List.map Runner.spec_of_string [ "grid:3"; "grid:3" ] in
  let result = Runner.run ~out_dir ~jobs:0 ~config:arnoldi_config specs in
  match result.Runner.reports with
  | [ a; b ] ->
    check_bool "distinct trace files" true
      (a.Runner.trace_path <> b.Runner.trace_path);
    check_bool "both trace files exist" true
      (Sys.file_exists a.Runner.trace_path
       && Sys.file_exists b.Runner.trace_path)
  | _ -> Alcotest.fail "expected two reports"

(* ---------- golden-baseline gating ---------- *)

let run_small () =
  let out_dir = temp_dir () in
  Runner.run ~out_dir ~jobs:0 ~config:arnoldi_config
    [ Runner.spec_of_string "grid:3" ]

let test_baseline_self () =
  let result = run_small () in
  let golden = Runner.to_json result in
  check_int "self-diff has no regressions" 0
    (List.length (Runner.diff_baseline ~golden result))

let test_baseline_regression () =
  let result = run_small () in
  (* A golden that claims far better numbers than measured. *)
  let golden =
    Json.Obj
      [ ("instances",
         Json.List
           [ Json.Obj
               [ ("name", Json.Str "grid3x3");
                 ("status", Json.Str "completed");
                 ("skew_ps", Json.Num 0.0);
                 ("clr_ps", Json.Num 0.0) ] ]) ]
  in
  let regs = Runner.diff_baseline ~golden result in
  check_bool "tampered golden flags a regression" true (regs <> []);
  (* A golden-completed instance missing from the run is a regression. *)
  let golden_missing =
    Json.Obj
      [ ("instances",
         Json.List
           [ Json.Obj
               [ ("name", Json.Str "ghost-bench");
                 ("status", Json.Str "completed");
                 ("skew_ps", Json.Num 1.0);
                 ("clr_ps", Json.Num 1.0) ] ]) ]
  in
  check_int "missing instance is a regression" 1
    (List.length (Runner.diff_baseline ~golden:golden_missing result));
  (* load_baseline round-trips through the written file. *)
  let path = Runner.write_suite_json result in
  match Runner.load_baseline path with
  | Error e -> Alcotest.fail e
  | Ok golden ->
    check_int "written suite.json works as its own golden" 0
      (List.length (Runner.diff_baseline ~golden result))

(* ---------- JSON parser (new of_string) ---------- *)

let test_json_roundtrip () =
  let v =
    Json.Obj
      [ ("s", Json.Str "a\"b\\c\n\t");
        ("n", Json.Num (-12.5));
        ("t", Json.Bool true);
        ("z", Json.Null);
        ("l", Json.List [ Json.Num 1.; Json.Str "x"; Json.Obj [] ]) ]
  in
  (match Json.of_string (Json.to_string v) with
  | Ok v' -> check_bool "pretty round-trip" true (v = v')
  | Error e -> Alcotest.fail e);
  (match Json.of_string (Json.to_compact_string v) with
  | Ok v' -> check_bool "compact round-trip" true (v = v')
  | Error e -> Alcotest.fail e);
  (match Json.of_string "{\"u\":\"A\\u00e9\"}" with
  | Ok (Json.Obj [ ("u", Json.Str s) ]) ->
    check_string "unicode escapes decode to UTF-8" "A\xc3\xa9" s
  | Ok _ -> Alcotest.fail "unexpected shape"
  | Error e -> Alcotest.fail e);
  List.iter
    (fun bad ->
      check_bool ("rejects " ^ bad) true
        (match Json.of_string bad with Error _ -> true | Ok _ -> false))
    [ ""; "{"; "[1,]"; "{\"a\":}"; "nulll"; "1 2"; "\"unterminated" ];
  (* Nesting is capped at [max_depth], arrays and objects alike. *)
  let nest d = String.make d '[' ^ String.make d ']' in
  let nest_obj d =
    String.concat "" (List.init d (fun _ -> "{\"k\":")) ^ "1"
    ^ String.make d '}'
  in
  List.iter
    (fun (what, f) ->
      check_bool (what ^ " at the cap parses") true
        (Result.is_ok (Json.of_string (f Json.max_depth)));
      match Json.of_string (f (Json.max_depth + 1)) with
      | Error e ->
        check_bool (what ^ " past the cap names the cap") true
          (contains e "nesting deeper than")
      | Ok _ -> Alcotest.failf "%s past the cap parsed" what)
    [ ("array nest", nest); ("object nest", nest_obj) ];
  Fuzz.never_raises "Json.of_string" Json.of_string
    (Fuzz.inputs ~seed:11 ~count:2000
       [ Json.to_string v; Json.to_compact_string v ])

let () =
  Alcotest.run "runner"
    [
      ("spec", [ Alcotest.test_case "parsing" `Quick test_spec_parsing ]);
      ("faults",
       [ Alcotest.test_case "isolation + telemetry" `Slow test_fault_isolation;
         Alcotest.test_case "real bench timeout" `Quick test_real_bench_timeout;
         Alcotest.test_case "hang requires timeout" `Quick
           test_hang_requires_timeout;
         Alcotest.test_case "duplicate names" `Quick test_duplicate_names ]);
      ("baseline",
       [ Alcotest.test_case "self" `Quick test_baseline_self;
         Alcotest.test_case "regressions" `Quick test_baseline_regression ]);
      ("json", [ Alcotest.test_case "parse round-trip" `Quick test_json_roundtrip ]);
    ]

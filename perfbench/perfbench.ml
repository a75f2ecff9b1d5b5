(* Repository benchmark: runs one workload, checks its outputs against
   perfbench/reference.txt, and prints its metrics. See README.md here.

     perfbench --workload NAME --seed N --seconds S --trace 0|1 [--record]

   Run from the repository root. The last line of standard output is one
   JSON object {correct, attempted, failed, metrics}: the end-to-end
   metrics with --trace 0, the per-layer metrics with --trace 1. A
   correctness failure exits 1 without printing it. *)

open Measure

(* The metric schema: [(name, unit)] of the "end_to_end" or "per_layer"
   list in BENCHMARK.json, in file order. *)
let schema key =
  let module Json = Suite.Report.Json in
  let text = In_channel.with_open_bin "BENCHMARK.json" In_channel.input_all in
  match Json.of_string text with
  | Error e -> failwith ("BENCHMARK.json: " ^ e)
  | Ok doc ->
    List.map
      (fun m ->
        match (Json.to_str (Json.member "name" m), Json.to_str (Json.member "unit" m)) with
        | Some name, Some unit_ -> (name, unit_)
        | _ -> failwith ("BENCHMARK.json: malformed " ^ key ^ " entry"))
      (Json.to_list (Json.member key doc))

(* Order [ms] by [schema]; a metric the workload did not produce is n/a. *)
let conform schema ms =
  List.iter
    (fun m ->
      if not (List.mem_assoc m.name schema) then
        failwith ("metric " ^ m.name ^ " is not in BENCHMARK.json"))
    ms;
  List.map
    (fun (name, unit_) ->
      match List.find_opt (fun m -> m.name = name) ms with
      | Some m when m.unit_ = unit_ -> m
      | Some m ->
        failwith (Printf.sprintf "metric %s: unit %s, schema %s" name m.unit_ unit_)
      | None -> na name unit_)
    schema

(* Benchmark output outside the source tree, ignored by git. *)
let scratch = ".perfbench"

type outcome = {
  context : (string * string) list;
  attempted : int;
  failed : int;
  e2e : metric list;
  layers : metric list;
  problems : string list;
}

let run_batch (w : Batch.workload) ~seed ~seconds ~trace =
  let instances, setup_times = Batch.setup w in
  let ckpt = Filename.concat scratch "ckpt" in
  let problems = ref [] in
  let refs = Reference.load () in
  let passes =
    Batch.measure w ~seconds ~trace ~ckpt instances ~on_pass:(fun p ->
        problems := !problems @ Batch.check refs w p)
  in
  Batch.remove_tree ckpt;
  let e2e = Batch.end_to_end ~setup_times passes in
  let runs = List.concat_map (fun p -> p.Batch.runs) passes in
  let errors =
    List.filter_map
      (function Error (s, e) -> Some (s ^ " failed: " ^ e) | Ok _ -> None)
      runs
  in
  {
    context =
      Measure.context ~workload:w.Batch.name ~seed ~trace ~config:w.Batch.config
        ~pools:
          [ ("regional_jobs", if w.Batch.regional then string_of_int (workers ()) else "-");
            ("pass_walls_s",
             String.concat " "
               (List.map
                  (fun p ->
                    Printf.sprintf "%.3f%s" p.Batch.wall
                      (if p.Batch.traced then "(traced)" else ""))
                  passes));
            ("instance_s",
             String.concat " "
               (List.map
                  (fun (spec, s) -> Printf.sprintf "%s=%.3f" spec s)
                  (Batch.instance_medians passes))) ];
    attempted = List.length runs;
    failed = List.length errors;
    e2e;
    layers = (if trace then Batch.per_layer w ~scratch instances passes else []);
    problems = !problems @ errors;
  }

let run_serve ~seed ~seconds ~trace =
  let socket = Filename.concat scratch "serve.sock" in
  let refs = Reference.load () in
  let d, warm, setup_times = Serve_mix.setup ~socket in
  let ph =
    Fun.protect ~finally:(fun () -> Serve_mix.stop d) (fun () ->
        Serve_mix.run_phase d (Serve_mix.plan ~seed ~seconds))
  in
  let failed = Serve_mix.failed ph in
  let e2e = Serve_mix.end_to_end ~setup_times ph in
  {
    context =
      Measure.context ~workload:Serve_mix.name ~seed ~trace
        ~config:Serve_mix.config
        ~pools:
          [ ("server_workers", string_of_int (workers ()));
            ("clients", string_of_int (nproc ()));
            ("requests", string_of_int (List.length ph.Serve_mix.outcomes)) ];
    attempted = List.length ph.Serve_mix.outcomes;
    failed;
    e2e;
    layers = (if trace then Serve_mix.per_layer ph else []);
    problems =
      Serve_mix.check refs ~warm ph
      @ (if failed > 0 then [ Printf.sprintf "%d requests failed or Busy" failed ] else []);
  }

let record workload =
  match List.find_opt (fun w -> w.Batch.name = workload) Batch.all with
  | Some w ->
    let instances, _ = Batch.setup w in
    let p =
      Batch.run_pass w ~traced:false ~ckpt:(Filename.concat scratch "ckpt") instances
    in
    List.iter print_endline (Batch.record_lines w p)
  | None when workload = Serve_mix.name ->
    List.iter print_endline (Serve_mix.record_lines ())
  | None -> failwith ("unknown workload " ^ workload)

let main ~workload ~seed ~seconds ~trace =
  let o =
    match List.find_opt (fun w -> w.Batch.name = workload) Batch.all with
    | Some w -> run_batch w ~seed ~seconds ~trace
    | None when workload = Serve_mix.name -> run_serve ~seed ~seconds ~trace
    | None -> failwith ("unknown workload " ^ workload)
  in
  if o.problems <> [] then begin
    List.iter (fun p -> Printf.eprintf "perfbench: INCORRECT: %s\n" p) o.problems;
    exit 1
  end;
  if trace then
    Spans.dump
      (Filename.concat scratch (Printf.sprintf "spans-%s-s%d.jsonl" workload seed));
  Printf.printf "perfbench %s\n" workload;
  List.iter (fun (k, v) -> Printf.printf "  %-20s %s\n" k v) o.context;
  print_endline "end-to-end (untraced passes):";
  let e2e = conform (schema "end_to_end") o.e2e in
  List.iter (fun m -> print_endline (pp_metric m)) e2e;
  Printf.printf "  %-28s %18.6g %-6s n=%d\n" "failed_frac"
    (ratio o.failed o.attempted) "ratio" o.attempted;
  if trace then begin
    print_endline "per-layer (traced passes):";
    List.iter (fun m -> print_endline (pp_metric m)) (conform (schema "per_layer") o.layers)
  end;
  let ms = if trace then conform (schema "per_layer") o.layers else e2e in
  Printf.printf
    "{\"correct\": true, \"attempted\": %d, \"failed\": %d, \"metrics\": %s}\n"
    o.attempted o.failed (metrics_json ms)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. in
  let trace = ref 0 and record_only = ref false in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N plan seed (serve_mix request mix)");
      ("--seconds", Arg.Set_float seconds, "S measuring time");
      ("--trace", Arg.Set_int trace, "0|1 per-layer metrics instead of end-to-end");
      ("--record", Arg.Set record_only, " print reference lines for the workload") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload NAME --seed N --seconds S --trace 0|1 [--record]";
  if not (Sys.file_exists "BENCHMARK.json" && Sys.file_exists Reference.path)
  then begin
    prerr_endline "perfbench: run from the repository root";
    exit 2
  end;
  Core.Persist.mkdir_p scratch;
  match
    if !record_only then record !workload
    else main ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
  with
  | () -> ()
  | exception Failure msg ->
    prerr_endline ("perfbench: " ^ msg);
    exit 2

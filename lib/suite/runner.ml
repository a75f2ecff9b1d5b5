module Flow = Core.Flow
module Ev = Analysis.Evaluator
module Json = Report.Json

type spec =
  | Bench of Format_io.t
  | Inject_fail of string
  | Inject_hang of string
  | Bad_spec of { bs_name : string; bs_detail : string }

let load_bench s =
  if Sys.file_exists s then
    match Format_io.read_file s with
    | Ok b -> b
    | Error e -> failwith e
  else if List.mem s Gen_ispd.names then Gen_ispd.generate s
  else
    let prefixed p =
      match String.index_opt s ':' with
      | Some i when String.sub s 0 i = p ->
        Some (String.sub s (i + 1) (String.length s - i - 1))
      | _ -> None
    in
    (* [ti:]/[grid:] sizes must be strictly positive integers: a generator
       handed 0 or a negative count would otherwise fail obscurely deep
       in topology construction (or not at all, looping on an empty sink
       set). A sink count past the die's candidate sites fails here too,
       not as the generator's [Invalid_argument]; [grid:<n>] has n·n
       sinks, compared as [n <= limit / n] so that n·n cannot overflow. *)
    let limit = Gen_ti.candidate_count in
    let sized ?(square = false) p body =
      match int_of_string_opt body with
      | Some n when n > 0 && n <= (if square then limit / n else limit) -> n
      | Some n when n > 0 ->
        failwith
          (Printf.sprintf "%s: %s:<n> needs at most %d sinks, got %s" s p limit
             (if square then Printf.sprintf "%dx%d" n n else string_of_int n))
      | Some n ->
        failwith
          (Printf.sprintf "%s: %s:<n> needs a positive sink count, got %d" s p n)
      | None ->
        failwith
          (Printf.sprintf "%s: %s:<n> needs a positive integer, got %S" s p body)
    in
    match (prefixed "ti", prefixed "grid") with
    | Some body, _ -> Gen_ti.generate (sized "ti" body)
    | _, Some body -> Gen_grid.generate ~n:(sized ~square:true "grid" body) ()
    | None, None ->
      failwith
        (Printf.sprintf
           "%s: not a file, an ISPD'09 name (%s), ti:<sinks> or grid:<n>" s
           (String.concat ", " Gen_ispd.names))

let spec_of_string s =
  let prefixed p =
    let pl = String.length p in
    if String.length s > pl && String.sub s 0 pl = p then
      Some (String.sub s pl (String.length s - pl))
    else None
  in
  match (prefixed "fail:", prefixed "hang:") with
  | Some name, _ -> Inject_fail name
  | _, Some name -> Inject_hang name
  | None, None -> (
    (* An unloadable spec becomes a structured per-instance failure —
       one bad argument must not abort a whole suite of good ones. *)
    try Bench (load_bench s)
    with Failure detail -> Bad_spec { bs_name = s; bs_detail = detail })

type reason = Crashed | Timed_out

type completed = {
  skew_ps : float;
  clr_ps : float;
  t_max_ps : float;
  cap_pct : float;
  buffers : int;
  eval_runs : int;
  store_hits : int;
  store_misses : int;
  digest : int64;
}

type status =
  | Completed of completed
  | Failed of { reason : reason; detail : string }

type instance_report = {
  name : string;
  sinks : int;
  regions : int;
  status : status;
  seconds : float;
  steps : Core.Flow.trace_entry list;
  incidents : Core.Flow.incident list;
  trace_path : string;
}

type t = {
  reports : instance_report list;
  seconds : float;
  out_dir : string;
}

let failures r =
  List.filter
    (fun i -> match i.status with Failed _ -> true | Completed _ -> false)
    r.reports

let spec_name = function
  | Bench b -> b.Format_io.name
  | Inject_fail n | Inject_hang n -> n
  | Bad_spec { bs_name; _ } -> bs_name

let spec_sinks = function
  | Bench b -> Array.length b.Format_io.sinks
  | Inject_fail _ | Inject_hang _ | Bad_spec _ -> 0

let sanitize name =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '.' | '_' | '-' -> c
      | _ -> '_')
    name

(* ------------------------------------------------------------------ *)
(* JSONL telemetry                                                     *)
(* ------------------------------------------------------------------ *)

let step_json (e : Flow.trace_entry) =
  Json.Obj
    [
      ("step", Json.Str (Flow.step_name e.Flow.step));
      ("skew_ps", Json.Num e.Flow.skew);
      ("clr_ps", Json.Num e.Flow.clr);
      ("t_max_ps", Json.Num e.Flow.t_max);
      ("eval_runs", Json.Num (float_of_int e.Flow.eval_runs));
      ("seconds", Json.Num e.Flow.seconds);
      ("step_seconds", Json.Num e.Flow.step_seconds);
      ("cache_hits", Json.Num (float_of_int e.Flow.cache_hits));
      ("cache_misses", Json.Num (float_of_int e.Flow.cache_misses));
      ("kernel_solves", Json.Num (float_of_int e.Flow.kernel_solves));
      ("kernel_saved", Json.Num (float_of_int e.Flow.kernel_saved));
      ("kernel_truncations", Json.Num (float_of_int e.Flow.kernel_truncations));
      ("attempts", Json.Num (float_of_int e.Flow.attempts));
      ("accepts", Json.Num (float_of_int e.Flow.accepts));
    ]

let trace_line ~name e =
  match step_json e with
  | Json.Obj fields -> Json.Obj (("bench", Json.Str name) :: fields)
  | other -> other

let incident_json (i : Flow.incident) =
  Json.Obj
    [
      ("event", Json.Str "incident");
      ("step", Json.Str (Flow.step_name i.Flow.inc_step));
      ("attempt", Json.Num (float_of_int i.Flow.inc_attempt));
      ("error", Json.Str i.Flow.inc_error);
      ("action", Json.Str i.Flow.inc_action);
    ]

let incident_line ~name i =
  match incident_json i with
  | Json.Obj fields -> Json.Obj (("bench", Json.Str name) :: fields)
  | other -> other

(* ------------------------------------------------------------------ *)
(* Per-instance execution with fault isolation                         *)
(* ------------------------------------------------------------------ *)

let run_one ~timeout ~config ~store ~resume (spec, trace_path, checkpoint_dir) =
  let name = spec_name spec in
  (* The per-instance budget lives on the monotonic clock — the scale
     {!Core.Config.deadline} is defined on — so a wall-clock jump (NTP
     step, suspend) can neither kill a healthy run nor keep a stuck one
     alive. *)
  let t0 = Core.Monoclock.now () in
  let deadline = Option.map (fun s -> t0 +. s) timeout in
  let steps = ref [] in
  let incidents = ref [] in
  let regions_used = ref 1 in
  let oc = open_out trace_path in
  let finish status =
    {
      name;
      sinks = spec_sinks spec;
      regions = !regions_used;
      status;
      seconds = Core.Monoclock.now () -. t0;
      steps = List.rev !steps;
      incidents = List.rev !incidents;
      trace_path;
    }
  in
  let timed_out () =
    Failed
      {
        reason = Timed_out;
        detail =
          Printf.sprintf "exceeded the %gs wall-clock budget"
            (Option.value timeout ~default:nan);
      }
  in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      match spec with
      | Bad_spec { bs_detail; _ } ->
        finish (Failed { reason = Crashed; detail = bs_detail })
      | Inject_fail _ ->
        (* Through the same handler as a real crash, so tests exercise the
           exact production path. *)
        (try failwith "injected failure" with
        | Failure _ as e ->
          finish
            (Failed { reason = Crashed; detail = Printexc.to_string e }))
      | Inject_hang _ -> (
        (* A "never converges" instance: only the cooperative deadline can
           end it, exactly like a real flow stuck in its optimization
           loops. *)
        match deadline with
        | None ->
          finish
            (Failed
               {
                 reason = Crashed;
                 detail = "hang instance requires a per-instance timeout";
               })
        | Some d ->
          let rec spin () =
            if Core.Monoclock.now () > d then raise Core.Ivc.Deadline_exceeded
            else begin
              Unix.sleepf 0.005;
              spin ()
            end
          in
          (try spin () with Core.Ivc.Deadline_exceeded -> ());
          finish (timed_out ()))
      | Bench b -> (
        (* Each instance gets its own handle onto the suite-shared store,
           so the hit/miss counters below are exactly this instance's
           cross-instance reuse (handles share tables, not counters). *)
        let handle = Option.map Ev.Store.handle store in
        let config =
          match handle with
          | Some h -> { config with Core.Config.deadline; store = Some h }
          | None -> { config with Core.Config.deadline }
        in
        let on_step e =
          steps := e :: !steps;
          output_string oc (Json.to_compact_string (trace_line ~name e));
          output_char oc '\n';
          (* Flushed per line so a later crash loses no telemetry. *)
          flush oc
        in
        (* Incidents stream into the same JSONL file (distinguished by
           their ["event": "incident"] field) so a later SIGKILL loses
           neither telemetry nor failure forensics. *)
        let on_incident i =
          incidents := i :: !incidents;
          output_string oc (Json.to_compact_string (incident_line ~name i));
          output_char oc '\n';
          flush oc
        in
        try
          (* [run_regional] with [regions <= 1] delegates to the plain
             flow bit-for-bit, so every instance goes through one entry
             point. *)
          let rr =
            Flow.run_regional ~config ~on_step ~on_incident ?checkpoint_dir
              ~resume ~tech:b.Format_io.tech ~source:b.Format_io.source
              ~obstacles:b.Format_io.obstacles b.Format_io.sinks
          in
          let r = rr.Flow.r_flow in
          (* Per-region telemetry joins the JSONL stream (these lines only
             exist once the stitched run finished, unlike the streamed
             step lines). *)
          (match rr.Flow.r_stitch with
          | None -> ()
          | Some st ->
            regions_used := List.length st.Flow.st_regions;
            List.iter
              (fun (rg : Flow.region_report) ->
                let line =
                  Json.Obj
                    [
                      ("bench", Json.Str name);
                      ("event", Json.Str "region");
                      ("region", Json.Num (float_of_int rg.Flow.rg_index));
                      ("sinks", Json.Num (float_of_int rg.Flow.rg_sinks));
                      ("skew_ps", Json.Num rg.Flow.rg_skew);
                      ("clr_ps", Json.Num rg.Flow.rg_clr);
                      ("t_max_ps", Json.Num rg.Flow.rg_t_max);
                      ("seconds", Json.Num rg.Flow.rg_seconds);
                      ("eval_runs",
                       Json.Num (float_of_int rg.Flow.rg_eval_runs));
                      ("incidents",
                       Json.Num (float_of_int rg.Flow.rg_incidents));
                    ]
                in
                output_string oc (Json.to_compact_string line);
                output_char oc '\n')
              st.Flow.st_regions;
            let line =
              Json.Obj
                [
                  ("bench", Json.Str name);
                  ("event", Json.Str "stitch");
                  ("predicted_skew_ps", Json.Num st.Flow.st_predicted_skew);
                  ("polish_rounds",
                   Json.Num (float_of_int st.Flow.st_rounds));
                  ("max_pad_ps", Json.Num st.Flow.st_max_pad_ps);
                ]
            in
            output_string oc (Json.to_compact_string line);
            output_char oc '\n';
            flush oc);
          let final = r.Flow.final in
          let stats = final.Ev.stats in
          let cap_limit = b.Format_io.tech.Tech.cap_limit in
          finish
            (Completed
               {
                 skew_ps = final.Ev.skew;
                 clr_ps = final.Ev.clr;
                 t_max_ps = final.Ev.t_max;
                 cap_pct =
                   (if cap_limit = infinity then nan
                    else 100. *. stats.Ctree.Stats.total_cap /. cap_limit);
                 buffers = stats.Ctree.Stats.buffer_count;
                 eval_runs = r.Flow.eval_runs;
                 store_hits =
                   (match config.Core.Config.store with
                   | Some h -> Ev.Store.hits h
                   | None -> 0);
                 store_misses =
                   (match config.Core.Config.store with
                   | Some h -> Ev.Store.misses h
                   | None -> 0);
                 digest = Ctree.Tree.digest r.Flow.tree;
               })
        with
        | Core.Ivc.Deadline_exceeded -> finish (timed_out ())
        | e ->
          finish (Failed { reason = Crashed; detail = Printexc.to_string e })))

let run ?(out_dir = "bench_out") ?timeout ?jobs ?(config = Core.Config.default)
    ?checkpoints ?(resume = false) specs =
  Core.Persist.mkdir_p out_dir;
  let t0 = Core.Monoclock.now () in
  (* Unique trace paths (and checkpoint directories) even when the same
     benchmark appears twice. *)
  let seen = Hashtbl.create 8 in
  let jobs_arr =
    Array.of_list
      (List.map
         (fun spec ->
           let base = sanitize (spec_name spec) in
           let count =
             match Hashtbl.find_opt seen base with Some c -> c + 1 | None -> 1
           in
           Hashtbl.replace seen base count;
           let unique =
             if count = 1 then base else Printf.sprintf "%s~%d" base count
           in
           let ckpt_dir =
             Option.map (fun root -> Filename.concat root unique) checkpoints
           in
           (spec, Filename.concat out_dir (unique ^ ".trace.jsonl"), ckpt_dir))
         specs)
  in
  let pool = Analysis.Domain_pool.create ?size:jobs () in
  (* One stage-result store shared across the whole suite: instances with
     overlapping subtrees (or a resumed re-run) answer each other's stage
     solves. Entries are content-keyed, so instances of different sizes
     or techs coexist safely — they just never collide. A caller that
     already threads its own store handle (the serve daemon) keeps it. *)
  let store =
    if config.Core.Config.store = None then Some (Ev.Store.create ())
    else None
  in
  let reports =
    Fun.protect
      ~finally:(fun () -> Analysis.Domain_pool.shutdown pool)
      (fun () ->
        (* Largest instance first: on a multi-worker pool this keeps the
           tail of the suite from waiting on the biggest benchmark. *)
        Analysis.Domain_pool.map_weighted pool
          ~weight:(fun (spec, _, _) -> spec_sinks spec)
          (run_one ~timeout ~config ~store ~resume)
          jobs_arr)
  in
  { reports = Array.to_list reports; seconds = Core.Monoclock.now () -. t0;
    out_dir }

(* ------------------------------------------------------------------ *)
(* Reporting                                                           *)
(* ------------------------------------------------------------------ *)

let status_word = function
  | Completed _ -> "completed"
  | Failed { reason = Crashed; _ } -> "crashed"
  | Failed { reason = Timed_out; _ } -> "timed_out"

let summary_table result =
  let rows =
    List.map
      (fun r ->
        let skew, clr =
          match r.status with
          | Completed c -> (Report.fmt ~decimals:2 c.skew_ps,
                            Report.fmt ~decimals:2 c.clr_ps)
          | Failed _ -> ("-", "-")
        in
        let paper_clr =
          match List.assoc_opt r.name Report.paper_table4 with
          | Some (Some (clr, _, _) :: _) -> Report.fmt ~decimals:2 clr
          | _ -> "-"
        in
        [ r.name; string_of_int r.sinks; status_word r.status; skew; clr;
          paper_clr; Report.fmt ~decimals:1 r.seconds ])
      result.reports
  in
  Report.table
    ~title:
      "Suite — measured vs paper (paper CLR = Table IV Contango, ISPD'09 \
       benchmarks only)"
    ~header:[ "bench"; "sinks"; "status"; "skew ps"; "CLR ps"; "CLR(p)"; "s" ]
    rows

let instance_json r =
  let base =
    [
      ("name", Json.Str r.name);
      ("sinks", Json.Num (float_of_int r.sinks));
      ("regions", Json.Num (float_of_int r.regions));
      ("status", Json.Str (status_word r.status));
      ("seconds", Json.Num r.seconds);
    ]
  in
  let outcome =
    match r.status with
    | Completed c ->
      [
        ("skew_ps", Json.Num c.skew_ps);
        ("clr_ps", Json.Num c.clr_ps);
        ("t_max_ps", Json.Num c.t_max_ps);
        ("cap_pct", Json.Num c.cap_pct);
        ("buffers", Json.Num (float_of_int c.buffers));
        ("eval_runs", Json.Num (float_of_int c.eval_runs));
        ("store_hits", Json.Num (float_of_int c.store_hits));
        ("store_misses", Json.Num (float_of_int c.store_misses));
        ("tree_digest", Json.Str (Printf.sprintf "%016Lx" c.digest));
      ]
    | Failed { detail; _ } -> [ ("detail", Json.Str detail) ]
  in
  let steps = [ ("steps", Json.List (List.map step_json r.steps)) ] in
  let incidents =
    if r.incidents = [] then []
    else [ ("incidents", Json.List (List.map incident_json r.incidents)) ]
  in
  let trace = [ ("trace_file", Json.Str (Filename.basename r.trace_path)) ] in
  Json.Obj (base @ outcome @ steps @ incidents @ trace)

let to_json result =
  let completed =
    List.length result.reports - List.length (failures result)
  in
  let store_hits, store_misses =
    List.fold_left
      (fun (h, m) r ->
        match r.status with
        | Completed c -> (h + c.store_hits, m + c.store_misses)
        | Failed _ -> (h, m))
      (0, 0) result.reports
  in
  Json.Obj
    [
      ("suite",
       Json.Obj
         [
           ("seconds", Json.Num result.seconds);
           ("instances", Json.Num (float_of_int (List.length result.reports)));
           ("completed", Json.Num (float_of_int completed));
           ("failed",
            Json.Num (float_of_int (List.length (failures result))));
           ("store_hits", Json.Num (float_of_int store_hits));
           ("store_misses", Json.Num (float_of_int store_misses));
         ]);
      ("instances", Json.List (List.map instance_json result.reports));
    ]

let write_suite_json result =
  let path = Filename.concat result.out_dir "suite.json" in
  (* Atomic: a crash mid-write never leaves a torn suite.json for a
     later --baseline diff (or a resume inspection) to choke on. *)
  Core.Persist.write_atomic path (Json.to_string (to_json result));
  path

let summary_line result =
  let total = List.length result.reports in
  let failed = failures result in
  let failure_words =
    List.map
      (fun r ->
        Printf.sprintf "%s (%s)" r.name
          (match r.status with
          | Failed { reason = Crashed; _ } -> "crashed"
          | Failed { reason = Timed_out; _ } -> "timed out"
          | Completed _ -> assert false))
      failed
  in
  if failed = [] then
    Printf.sprintf "suite: %d/%d instances completed in %.1f s" total total
      result.seconds
  else
    Printf.sprintf "suite: %d/%d instances completed in %.1f s — FAILED: %s"
      (total - List.length failed)
      total result.seconds
      (String.concat ", " failure_words)

(* ------------------------------------------------------------------ *)
(* Golden-baseline diff                                                *)
(* ------------------------------------------------------------------ *)

type tolerance = { tol_skew_ps : float; tol_clr_ps : float }

let default_tolerance = { tol_skew_ps = 0.5; tol_clr_ps = 1.0 }

type regression = {
  reg_name : string;
  what : string;
  measured : float;
  golden : float;
}

let diff_baseline ?(tolerance = default_tolerance) ~golden result =
  let golden_instances = Json.to_list (Json.member "instances" golden) in
  let measured name =
    List.find_opt (fun r -> r.name = name) result.reports
  in
  List.concat_map
    (fun g ->
      match (Json.to_str (Json.member "name" g),
             Json.to_str (Json.member "status" g)) with
      | Some name, Some "completed" -> (
        let g_skew = Json.to_float (Json.member "skew_ps" g) in
        let g_clr = Json.to_float (Json.member "clr_ps" g) in
        match measured name with
        | None ->
          [ { reg_name = name;
              what = "present in the baseline but missing from this run";
              measured = nan; golden = nan } ]
        | Some { status = Failed { reason; _ }; _ } ->
          [ { reg_name = name;
              what =
                Printf.sprintf "completed in the baseline but %s now"
                  (match reason with
                  | Crashed -> "crashed"
                  | Timed_out -> "timed out");
              measured = nan; golden = nan } ]
        | Some { status = Completed c; _ } ->
          let metric what tol golden_v measured_v =
            match golden_v with
            | Some gv when measured_v > gv +. tol ->
              [ { reg_name = name;
                  what =
                    Printf.sprintf "%s regressed %.3f -> %.3f ps (tol %.3f)"
                      what gv measured_v tol;
                  measured = measured_v; golden = gv } ]
            | _ -> []
          in
          metric "skew" tolerance.tol_skew_ps g_skew c.skew_ps
          @ metric "CLR" tolerance.tol_clr_ps g_clr c.clr_ps)
      | _ -> [])
    golden_instances

let load_baseline path =
  match open_in_bin path with
  | exception Sys_error e -> Error e
  | ic ->
    let text =
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    Json.of_string text

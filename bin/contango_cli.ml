(* Command-line interface to the Contango flow:

     contango generate <name|ti:N> -o bench.cts
     contango run bench.cts [--engine spice|arnoldi] [--svg out.svg]
     contango suite SPEC... [--timeout S] [--jobs N] [--baseline golden.json]
     contango pareto bench.cts [--jobs N]   (knob sweep -> Pareto front)
     contango eval bench.cts            (baseline greedy-CTS, for comparison)
     contango svg bench.cts -o tree.svg (initial tree only, slack-coloured)
     contango serve --socket /tmp/c.sock [--max-queue N] [--workers N]
     contango client --socket /tmp/c.sock run ti:200 [--timeout S]
*)

open Cmdliner
module Ev = Analysis.Evaluator

(* The engine knob also picks the Spice representation: [flat] streams
   the backward-Euler kernel over the flat arena pool, [boxed] (alias
   [spice]) keeps the boxed reference path. *)
let engine_conv =
  let parse = function
    | "spice" | "boxed" -> Ok (Ev.Spice, false)
    | "flat" -> Ok (Ev.Spice, true)
    | "arnoldi" -> Ok (Ev.Arnoldi, false)
    | "elmore" -> Ok (Ev.Elmore_model, false)
    | s -> Error (`Msg (Printf.sprintf "unknown engine %S" s))
  in
  let print ppf = function
    | Ev.Spice, true -> Format.pp_print_string ppf "flat"
    | Ev.Spice, false -> Format.pp_print_string ppf "spice"
    | (Ev.Arnoldi, _) -> Format.pp_print_string ppf "arnoldi"
    | (Ev.Elmore_model, _) -> Format.pp_print_string ppf "elmore"
  in
  Arg.conv (parse, print)

(* Benchmark loading/parse problems are user errors with file:line
   diagnostics, not crashes — print them cleanly instead of dying with a
   backtrace. *)
let load_bench s =
  try Suite.Runner.load_bench s
  with Failure msg ->
    Printf.eprintf "contango: %s\n" msg;
    exit 2

let config_of ?second_pass_skew ?speculation ?probe_count ?size_probe_min_len
    ?snake_probe_min_len ?seg_len ?regions ?(regional = false) ?stitch_skew
    ?(surrogate = false) ?rank_top ~engine () =
  let c = Core.Config.default in
  (* [--regional] alone picks a sensible region count; an explicit
     [--regions] always wins. *)
  let c =
    match (regions, regional) with
    | Some r, _ -> { c with Core.Config.regions = r }
    | None, true -> { c with Core.Config.regions = 8 }
    | None, false -> c
  in
  let c =
    match stitch_skew with
    | Some s -> { c with Core.Config.stitch_skew_ps = s }
    | None -> c
  in
  let c =
    match engine with
    | Some (e, flat) -> { c with Core.Config.engine = e; flat }
    | None -> c
  in
  let c =
    match seg_len with
    | Some l -> { c with Core.Config.seg_len = l }
    | None -> c
  in
  let c =
    match second_pass_skew with
    | Some s -> { c with Core.Config.second_pass_skew_ps = s }
    | None -> c
  in
  let c =
    match speculation with
    | Some n -> { c with Core.Config.speculation = n }
    | None -> c
  in
  let c =
    match probe_count with
    | Some n -> { c with Core.Config.probe_count = n }
    | None -> c
  in
  let c =
    match size_probe_min_len with
    | Some n -> { c with Core.Config.size_probe_min_len = n }
    | None -> c
  in
  let c =
    match snake_probe_min_len with
    | Some n -> { c with Core.Config.snake_probe_min_len = n }
    | None -> c
  in
  let c = if surrogate then { c with Core.Config.surrogate = true } else c in
  match rank_top with
  | Some n -> { c with Core.Config.rank_top = n }
  | None -> c

(* Evaluation knobs shared by the run, suite, pareto, eval and serve
   commands. *)
let engine_arg =
  Arg.(value & opt (some engine_conv) None
       & info [ "engine" ]
           ~doc:"Evaluation engine: spice (boxed reference), flat \
                 (streaming flat-arena kernel), arnoldi, elmore.")

let seg_len_arg =
  Arg.(value & opt (some int) None
       & info [ "seg-len" ] ~docv:"NM"
           ~doc:"RC segmentation granularity in nm (default 30000): wires \
                 are cut into lumped RC segments of at most this length \
                 for evaluation. Larger values trade accuracy for speed.")

(* Speculation widths are N >= 0; a negative value is a usage error. *)
let width_conv =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 0 -> Ok n
    | Some _ | None ->
      Error (`Msg (Printf.sprintf "expected a width N >= 0, got %S" s))
  in
  Arg.conv (parse, Format.pp_print_int)

let speculate_arg =
  Arg.(value & opt (some width_conv) None
       & info [ "speculate" ] ~docv:"N"
           ~doc:"Speculative candidate-search width for the IVC loops, \
                 N >= 0: N > 0 parallel lanes (1 = serial journaled \
                 search), 0 picks a width from the core count (default). \
                 Results are identical for every N; only wall-clock \
                 changes.")

let surrogate_arg =
  Arg.(value & flag
       & info [ "surrogate" ]
           ~doc:"Rank speculative candidates with the calibrated linear \
                 surrogate: once calibrated, only the top-R predicted \
                 candidates of each IVC round pay a full evaluation (a \
                 trust-radius mispredict guard falls back to the full \
                 set). Off (the default) reproduces the unranked search \
                 bit-identically; on keeps final quality within the IVC \
                 tolerance while cutting the evaluation count.")

let rank_top_arg =
  Arg.(value & opt (some int) None
       & info [ "rank-top" ] ~docv:"R"
           ~doc:"Top-R candidates that pay a full evaluation per \
                 surrogate-ranked round (0, the default, scales with the \
                 candidate count). Only read with $(b,--surrogate).")

let probe_count_arg =
  Arg.(value & opt (some int) None
       & info [ "probe-count" ] ~docv:"K"
           ~doc:"Calibration probes per wire-sizing/snaking estimator.")

let size_probe_min_len_arg =
  Arg.(value & opt (some int) None
       & info [ "size-probe-min-len" ] ~docv:"NM"
           ~doc:"Minimum parent-wire length for a wire-sizing probe site.")

let snake_probe_min_len_arg =
  Arg.(value & opt (some int) None
       & info [ "snake-probe-min-len" ] ~docv:"NM"
           ~doc:"Minimum parent-wire length for a snaking probe site.")

let regions_arg =
  Arg.(value & opt (some int) None
       & info [ "regions" ] ~docv:"N"
           ~doc:"Partition the sinks into N capacity-balanced regions, \
                 synthesize each region concurrently and stitch them under \
                 a latency-balanced top-level tree. 1 (the default) is the \
                 monolithic flow, bit-identical to not passing the flag.")

let regional_arg =
  Arg.(value & flag
       & info [ "regional" ]
           ~doc:"Shorthand for the regional flow with a default region \
                 count (8). An explicit $(b,--regions) takes precedence.")

let stitch_skew_arg =
  Arg.(value & opt (some float) None
       & info [ "stitch-skew" ] ~docv:"PS"
           ~doc:"Global skew (ps) below which the regional stitch polish \
                 loop stops (default 1.0). Only read when regions > 1.")

let write_slack_svg tree eval path =
  let slacks = Core.Slack.combined tree eval in
  let hi =
    Array.fold_left
      (fun acc v -> if Float.is_finite v then Float.max acc v else acc)
      0. slacks.Core.Slack.slow
  in
  let edge_color id =
    Ctree.Svg.gradient ~lo:0. ~hi (slacks.Core.Slack.slow.(id))
  in
  Ctree.Svg.write_file path (Ctree.Svg.render ~edge_color tree);
  Printf.printf "wrote %s\n" path

(* generate *)
let generate_cmd =
  let spec =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"NAME" ~doc:"Benchmark: an ISPD'09 name or ti:<sinks>.")
  in
  let output =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE")
  in
  let run spec output =
    let b = load_bench spec in
    let path = Option.value output ~default:(b.Suite.Format_io.name ^ ".cts") in
    Suite.Format_io.write_file path b;
    Printf.printf "wrote %s (%d sinks, %d obstacles)\n" path
      (Array.length b.Suite.Format_io.sinks)
      (List.length b.Suite.Format_io.obstacles)
  in
  Cmd.v (Cmd.info "generate" ~doc:"Generate a benchmark file.")
    Term.(const run $ spec $ output)

(* run *)
let run_cmd =
  let spec = Arg.(required & pos 0 (some string) None & info [] ~docv:"BENCH") in
  let svg = Arg.(value & opt (some string) None & info [ "svg" ] ~docv:"FILE") in
  let second_pass_skew =
    Arg.(value & opt (some float) None
         & info [ "second-pass-skew" ] ~docv:"PS"
             ~doc:"Nominal skew (ps) above which TWSZ/TWSN run a second \
                   pass. Use inf to disable the second pass, a negative \
                   value to force it.")
  in
  let checkpoints =
    Arg.(value & opt (some string) None
         & info [ "checkpoints" ] ~docv:"DIR"
             ~doc:"Write a verified checkpoint to $(docv) after every \
                   completed flow stage (atomic, checksummed).")
  in
  let resume =
    Arg.(value & opt (some string) None
         & info [ "resume" ] ~docv:"DIR"
             ~doc:"Resume from the latest verified checkpoint in $(docv), \
                   skipping completed stages, and keep checkpointing \
                   there. Runs from scratch when $(docv) has no loadable \
                   checkpoint.")
  in
  let run spec engine seg_len second_pass_skew speculation surrogate rank_top
      probe_count size_probe_min_len snake_probe_min_len regions regional
      stitch_skew checkpoints resume svg =
    let b = load_bench spec in
    let config =
      config_of ?second_pass_skew ?speculation ~surrogate ?rank_top
        ?probe_count ?size_probe_min_len ?snake_probe_min_len ?seg_len
        ?regions ~regional ?stitch_skew ~engine ()
    in
    let checkpoint_dir, resume_on =
      match resume with
      | Some dir -> (Some dir, true)
      | None -> (checkpoints, false)
    in
    let rr =
      Core.Flow.run_regional ~config ?checkpoint_dir ~resume:resume_on
        ~tech:b.Suite.Format_io.tech ~source:b.Suite.Format_io.source
        ~obstacles:b.Suite.Format_io.obstacles b.Suite.Format_io.sinks
    in
    let r = rr.Core.Flow.r_flow in
    Printf.printf "benchmark %s (%d sinks)\n" b.Suite.Format_io.name
      (Array.length b.Suite.Format_io.sinks);
    (match rr.Core.Flow.r_stitch with
    | None -> ()
    | Some st ->
      List.iter
        (fun (rg : Core.Flow.region_report) ->
          Printf.printf
            "region %-2d %6d sinks   skew %8.3f ps   evals %4d   %6.1f s\n"
            rg.Core.Flow.rg_index rg.Core.Flow.rg_sinks rg.Core.Flow.rg_skew
            rg.Core.Flow.rg_eval_runs rg.Core.Flow.rg_seconds)
        st.Core.Flow.st_regions;
      Printf.printf
        "stitch: predicted skew %.3f ps, %d polish rounds, max pad %.3f ps\n"
        st.Core.Flow.st_predicted_skew st.Core.Flow.st_rounds
        st.Core.Flow.st_max_pad_ps);
    List.iter
      (fun (e : Core.Flow.trace_entry) ->
        Printf.printf "%-8s skew %8.3f ps   CLR %8.3f ps   evals %4d   %6.1f s\n"
          (Core.Flow.step_name e.Core.Flow.step) e.Core.Flow.skew
          e.Core.Flow.clr e.Core.Flow.eval_runs e.Core.Flow.seconds)
      r.Core.Flow.trace;
    List.iter
      (fun (i : Core.Flow.incident) ->
        Printf.printf "incident %-8s attempt %d [%s] %s\n"
          (Core.Flow.step_name i.Core.Flow.inc_step) i.Core.Flow.inc_attempt
          i.Core.Flow.inc_action i.Core.Flow.inc_error)
      r.Core.Flow.incidents;
    let stats = r.Core.Flow.final.Ev.stats in
    Printf.printf "buffers %d  wirelength %.2f mm  cap %.1f pF (%s of limit)\n"
      stats.Ctree.Stats.buffer_count
      (float_of_int stats.Ctree.Stats.wirelength /. 1.e6)
      (stats.Ctree.Stats.total_cap /. 1000.)
      (if b.Suite.Format_io.tech.Tech.cap_limit = infinity then "n/a"
       else
         Printf.sprintf "%.1f%%"
           (100. *. stats.Ctree.Stats.total_cap
            /. b.Suite.Format_io.tech.Tech.cap_limit));
    (match r.Core.Flow.repair with
    | Some rep -> Format.printf "repair: %a@." Route.Repair.pp_report rep
    | None -> ());
    Printf.printf "tree digest %016Lx\n" (Ctree.Tree.digest r.Core.Flow.tree);
    (* Local skew profile: skew restricted to communicating-distance
       sink pairs. *)
    let run_rise = Ev.nominal_run r.Core.Flow.final Ev.Rise in
    let profile =
      Analysis.Localskew.profile run_rise ~tree:r.Core.Flow.tree
        ~radii:[ 200_000; 1_000_000; 5_000_000 ]
    in
    Printf.printf "local skew: %s\n"
      (String.concat "  "
         (List.map
            (fun (radius, skew) ->
              Printf.sprintf "<=%.1fmm: %.3fps"
                (float_of_int radius /. 1.e6)
                skew)
            profile));
    (match r.Core.Flow.surrogate with
    | None -> ()
    | Some s ->
      Printf.printf
        "surrogate: %d observations, %d refits, rounds %d warm-up / %d \
         ranked, %d evals saved, %d mispredicts, %d fallbacks\n"
        s.Analysis.Surrogate.observations s.Analysis.Surrogate.refits
        s.Analysis.Surrogate.warmup_rounds s.Analysis.Surrogate.ranked_rounds
        s.Analysis.Surrogate.evals_saved s.Analysis.Surrogate.mispredicts
        s.Analysis.Surrogate.fallbacks);
    Option.iter (write_slack_svg r.Core.Flow.tree r.Core.Flow.final) svg
  in
  Cmd.v (Cmd.info "run" ~doc:"Run the full Contango flow on a benchmark.")
    Term.(const run $ spec $ engine_arg $ seg_len_arg $ second_pass_skew
          $ speculate_arg $ surrogate_arg $ rank_top_arg $ probe_count_arg
          $ size_probe_min_len_arg $ snake_probe_min_len_arg $ regions_arg
          $ regional_arg $ stitch_skew_arg $ checkpoints $ resume $ svg)

(* suite *)
let suite_cmd =
  let specs =
    Arg.(non_empty & pos_all string []
         & info [] ~docv:"SPEC"
             ~doc:"Instances to run: a .cts file, an ISPD'09 name, ti:<sinks>, \
                   grid:<n>, or the fault-injection specs fail:<name> and \
                   hang:<name>.")
  in
  let out_dir =
    Arg.(value & opt string "bench_out"
         & info [ "o"; "out-dir" ] ~docv:"DIR"
             ~doc:"Directory for suite.json and per-instance trace files.")
  in
  let timeout =
    Arg.(value & opt (some float) None
         & info [ "timeout" ] ~docv:"SECONDS"
             ~doc:"Per-instance wall-clock budget; an instance past it is \
                   recorded as timed out.")
  in
  let jobs =
    Arg.(value & opt (some int) None
         & info [ "jobs" ] ~docv:"N"
             ~doc:"Worker domains running instances in parallel (0 = \
                   sequential; default: one per spare core).")
  in
  let second_pass_skew =
    Arg.(value & opt (some float) None
         & info [ "second-pass-skew" ] ~docv:"PS"
             ~doc:"Nominal skew (ps) above which TWSZ/TWSN run a second pass.")
  in
  let baseline =
    Arg.(value & opt (some string) None
         & info [ "baseline" ] ~docv:"FILE"
             ~doc:"Golden suite.json to diff against; regressions beyond the \
                   tolerance fail the run.")
  in
  let tol_skew =
    Arg.(value & opt float Suite.Runner.default_tolerance.Suite.Runner.tol_skew_ps
         & info [ "tol-skew" ] ~docv:"PS"
             ~doc:"Skew regression tolerance for --baseline.")
  in
  let tol_clr =
    Arg.(value & opt float Suite.Runner.default_tolerance.Suite.Runner.tol_clr_ps
         & info [ "tol-clr" ] ~docv:"PS"
             ~doc:"CLR regression tolerance for --baseline.")
  in
  let checkpoints =
    Arg.(value & flag
         & info [ "checkpoints" ]
             ~doc:"Write verified per-stage checkpoints to \
                   <out-dir>/checkpoints/<name>/ for every instance \
                   (atomic, checksummed) so an interrupted suite can be \
                   resumed with --resume.")
  in
  let resume =
    Arg.(value & opt (some string) None
         & info [ "resume" ] ~docv:"DIR"
             ~doc:"Resume each instance from its latest verified \
                   checkpoint under $(docv)/checkpoints, skipping \
                   completed stages (instances without checkpoints run \
                   from scratch), and keep checkpointing there.")
  in
  let run specs out_dir timeout jobs engine seg_len second_pass_skew
      speculation surrogate rank_top probe_count size_probe_min_len
      snake_probe_min_len regions regional stitch_skew baseline tol_skew
      tol_clr checkpoints resume =
    let specs = List.map Suite.Runner.spec_of_string specs in
    let config =
      config_of ?second_pass_skew ?speculation ~surrogate ?rank_top
        ?probe_count ?size_probe_min_len ?snake_probe_min_len ?seg_len
        ?regions ~regional ?stitch_skew ~engine ()
    in
    let checkpoints_root, resume_on =
      match resume with
      | Some dir -> (Some (Filename.concat dir "checkpoints"), true)
      | None ->
        ((if checkpoints then Some (Filename.concat out_dir "checkpoints")
          else None),
         false)
    in
    let result =
      Suite.Runner.run ~out_dir ?timeout ?jobs ~config
        ?checkpoints:checkpoints_root ~resume:resume_on specs
    in
    print_string (Suite.Runner.summary_table result);
    let path = Suite.Runner.write_suite_json result in
    Printf.printf "wrote %s\n" path;
    let regressions =
      match baseline with
      | None -> []
      | Some file -> (
        match Suite.Runner.load_baseline file with
        | Error msg ->
          Printf.eprintf "cannot read baseline %s: %s\n" file msg;
          exit 2
        | Ok golden ->
          let tolerance =
            { Suite.Runner.tol_skew_ps = tol_skew; tol_clr_ps = tol_clr }
          in
          Suite.Runner.diff_baseline ~tolerance ~golden result)
    in
    List.iter
      (fun r ->
        Printf.printf "REGRESSION %s: %s\n" r.Suite.Runner.reg_name
          r.Suite.Runner.what)
      regressions;
    print_endline (Suite.Runner.summary_line result);
    if Suite.Runner.failures result <> [] || regressions <> [] then exit 1
  in
  Cmd.v
    (Cmd.info "suite"
       ~doc:"Run a benchmark suite with fault isolation, per-step JSONL \
             telemetry and optional golden-baseline regression gating.")
    Term.(const run $ specs $ out_dir $ timeout $ jobs $ engine_arg
          $ seg_len_arg $ second_pass_skew $ speculate_arg $ surrogate_arg
          $ rank_top_arg $ probe_count_arg $ size_probe_min_len_arg
          $ snake_probe_min_len_arg $ regions_arg $ regional_arg
          $ stitch_skew_arg $ baseline $ tol_skew $ tol_clr $ checkpoints
          $ resume)

(* pareto *)
let pareto_cmd =
  let spec = Arg.(required & pos 0 (some string) None & info [] ~docv:"BENCH") in
  let out_dir =
    Arg.(value & opt string "bench_out"
         & info [ "o"; "out-dir" ] ~docv:"DIR"
             ~doc:"Directory for the <bench>.pareto.json report.")
  in
  let timeout =
    Arg.(value & opt (some float) None
         & info [ "timeout" ] ~docv:"SECONDS"
             ~doc:"Per-point wall-clock budget; a point past it is recorded \
                   as failed.")
  in
  let jobs =
    Arg.(value & opt (some int) None
         & info [ "jobs" ] ~docv:"N"
             ~doc:"Worker domains running sweep points in parallel (0 = \
                   sequential — the maximum cache-reuse setting; default: \
                   one per spare core).")
  in
  let run spec out_dir timeout jobs engine seg_len speculation surrogate
      rank_top =
    let b = load_bench spec in
    let config = config_of ?speculation ~surrogate ?rank_top ?seg_len ~engine () in
    let r = Suite.Pareto.run ?timeout ?jobs ~config b in
    print_string (Suite.Pareto.table r);
    let path = Suite.Pareto.write_json ~out_dir r in
    Printf.printf "wrote %s\n" path;
    let hits, misses = Suite.Pareto.store_totals r in
    Printf.printf
      "pareto: %d points in %.1f s — shared-store %d hits / %d misses \
       (%.0f%% reuse)\n"
      (List.length r.Suite.Pareto.pr_points)
      r.Suite.Pareto.pr_seconds hits misses
      (100. *. Suite.Pareto.hit_rate r);
    let failed =
      List.filter
        (fun p ->
          match p.Suite.Pareto.pt_outcome with
          | Error _ -> true
          | Ok _ -> false)
        r.Suite.Pareto.pr_points
    in
    if failed <> [] then exit 1
  in
  Cmd.v
    (Cmd.info "pareto"
       ~doc:"Sweep one benchmark over a grid of knob vectors (buffer \
             ladder, wire widths, snaking, transient mode, speculation \
             width), share stage-result stores across compatible points, \
             and report the skew/CLR/cap/runtime Pareto front.")
    Term.(const run $ spec $ out_dir $ timeout $ jobs $ engine_arg
          $ seg_len_arg $ speculate_arg $ surrogate_arg $ rank_top_arg)

(* eval (baseline) *)
let eval_cmd =
  let spec = Arg.(required & pos 0 (some string) None & info [] ~docv:"BENCH") in
  let run spec engine =
    let b = load_bench spec in
    let config = config_of ~engine () in
    let r = Suite.Baseline.run ~config b in
    Format.printf "greedy-CTS baseline on %s: %a@." b.Suite.Format_io.name
      Ev.pp_summary r.Suite.Baseline.eval
  in
  Cmd.v
    (Cmd.info "eval" ~doc:"Run and evaluate the greedy-CTS baseline flow.")
    Term.(const run $ spec $ engine_arg)

(* mc: Monte-Carlo variation analysis *)
let mc_cmd =
  let spec = Arg.(required & pos 0 (some string) None & info [] ~docv:"BENCH") in
  let trials = Arg.(value & opt int 20 & info [ "trials" ] ~docv:"N") in
  let sigma =
    Arg.(value & opt float 0.05 & info [ "sigma" ]
         ~doc:"Relative std-dev of buffer drive strength.")
  in
  let run spec trials sigma =
    let b = load_bench spec in
    let r =
      Core.Flow.run ~tech:b.Suite.Format_io.tech
        ~source:b.Suite.Format_io.source
        ~obstacles:b.Suite.Format_io.obstacles b.Suite.Format_io.sinks
    in
    let mc =
      Analysis.Montecarlo.run
        { Analysis.Montecarlo.default_spec with
          Analysis.Montecarlo.trials; sigma_buffer = sigma }
        r.Core.Flow.tree
    in
    Printf.printf
      "%s after the full flow, %d trials at sigma %.0f%%:\n\
       nominal skew %.3f ps; under variation mean %.3f, worst %.3f, \
       sigma %.3f ps\n"
      b.Suite.Format_io.name trials (100. *. sigma)
      mc.Analysis.Montecarlo.nominal_skew mc.Analysis.Montecarlo.mean_skew
      mc.Analysis.Montecarlo.max_skew mc.Analysis.Montecarlo.std_skew
  in
  Cmd.v
    (Cmd.info "mc" ~doc:"Monte-Carlo variation analysis of the optimized tree.")
    Term.(const run $ spec $ trials $ sigma)

(* mesh: tree-mesh hybrid *)
let mesh_cmd =
  let spec = Arg.(required & pos 0 (some string) None & info [] ~docv:"BENCH") in
  let density = Arg.(value & opt int 12 & info [ "density" ] ~docv:"N") in
  let taps = Arg.(value & opt int 4 & info [ "taps" ] ~docv:"K") in
  let run spec density taps =
    let b = load_bench spec in
    let region = b.Suite.Format_io.chip in
    let sinks =
      Array.map
        (fun s -> (s.Dme.Zst.pos, s.Dme.Zst.cap))
        b.Suite.Format_io.sinks
    in
    let m =
      Mesh.Grid_mesh.build ~tech:b.Suite.Format_io.tech ~region ~nx:density
        ~ny:density ~sinks
    in
    let res, flow =
      Mesh.Grid_mesh.hybrid ~tech:b.Suite.Format_io.tech
        ~source:b.Suite.Format_io.source ~k:taps m
    in
    Printf.printf
      "%dx%d mesh, %dx%d taps on %s:\n\
       tap-tree skew %.3f ps; mesh sink skew %.3f ps; worst sink slew %.1f \
       ps; mesh wire cap %.1f pF\n"
      density density taps taps b.Suite.Format_io.name
      flow.Core.Flow.final.Ev.skew res.Mesh.Grid_mesh.skew
      res.Mesh.Grid_mesh.worst_slew
      (Mesh.Grid_mesh.wire_cap m /. 1000.)
  in
  Cmd.v
    (Cmd.info "mesh" ~doc:"Drive a clock mesh from a Contango tap tree.")
    Term.(const run $ spec $ density $ taps)

(* netlist *)
let netlist_cmd =
  let spec = Arg.(required & pos 0 (some string) None & info [] ~docv:"BENCH") in
  let output =
    Arg.(value & opt string "tree.cir" & info [ "o"; "output" ] ~docv:"FILE")
  in
  let run spec output =
    let b = load_bench spec in
    let tree, _, _, _ =
      Core.Flow.initial_tree ~tech:b.Suite.Format_io.tech
        ~source:b.Suite.Format_io.source
        ~obstacles:b.Suite.Format_io.obstacles b.Suite.Format_io.sinks
    in
    Analysis.Netlist.write_file output tree;
    Printf.printf "wrote %s (ngspice deck for the initial buffered tree)\n"
      output
  in
  Cmd.v
    (Cmd.info "netlist"
       ~doc:"Export the initial buffered tree as an ngspice deck.")
    Term.(const run $ spec $ output)

(* svg *)
let svg_cmd =
  let spec = Arg.(required & pos 0 (some string) None & info [] ~docv:"BENCH") in
  let output =
    Arg.(value & opt string "tree.svg" & info [ "o"; "output" ] ~docv:"FILE")
  in
  let run spec output =
    let b = load_bench spec in
    let tree, _, _, _ =
      Core.Flow.initial_tree ~tech:b.Suite.Format_io.tech
        ~source:b.Suite.Format_io.source
        ~obstacles:b.Suite.Format_io.obstacles b.Suite.Format_io.sinks
    in
    let eval = Ev.evaluate tree in
    let slacks = Core.Slack.combined tree eval in
    let hi =
      Array.fold_left
        (fun acc v -> if Float.is_finite v then Float.max acc v else acc)
        0. slacks.Core.Slack.slow
    in
    let edge_color id =
      Ctree.Svg.gradient ~lo:0. ~hi slacks.Core.Slack.slow.(id)
    in
    Ctree.Svg.write_file output
      (Ctree.Svg.render ~edge_color ~obstacles:b.Suite.Format_io.obstacles tree);
    Printf.printf "wrote %s\n" output
  in
  Cmd.v
    (Cmd.info "svg"
       ~doc:"Render the initial buffered tree with slack colouring.")
    Term.(const run $ spec $ output)

(* serve / client *)
let socket_arg =
  Arg.(value & opt (some string) None
       & info [ "socket" ] ~docv:"PATH"
           ~doc:"Unix-domain socket path. Exactly one of $(b,--socket) and \
                 $(b,--port) must be given.")

let port_arg =
  Arg.(value & opt (some int) None
       & info [ "port" ] ~docv:"PORT"
           ~doc:"TCP port on 127.0.0.1 (0 picks an ephemeral port; the \
                 server prints the one bound).")

let sockaddr_of socket port =
  match (socket, port) with
  | Some path, None -> Unix.ADDR_UNIX path
  | None, Some p -> Unix.ADDR_INET (Unix.inet_addr_loopback, p)
  | Some _, Some _ ->
    Printf.eprintf "contango: --socket and --port are mutually exclusive\n";
    exit 2
  | None, None ->
    Printf.eprintf "contango: one of --socket or --port is required\n";
    exit 2

let sockaddr_string = function
  | Unix.ADDR_UNIX path -> path
  | Unix.ADDR_INET (host, port) ->
    Printf.sprintf "%s:%d" (Unix.string_of_inet_addr host) port

let serve_cmd =
  let max_queue =
    Arg.(value & opt int 16
         & info [ "max-queue" ] ~docv:"N"
             ~doc:"Bound on queued-plus-running requests; requests beyond it \
                   are rejected with a busy/retry-after response instead of \
                   being enqueued.")
  in
  let workers =
    Arg.(value & opt (some int) None
         & info [ "workers" ] ~docv:"N"
             ~doc:"Worker domains for request execution (0 = inline on \
                   connection threads; default: one per spare core).")
  in
  let conn_timeout =
    Arg.(value & opt (some float) None
         & info [ "conn-timeout" ] ~docv:"SECONDS"
             ~doc:"Per-connection read deadline: a connection idle (or \
                   stuck mid-frame) for longer is closed. Default: no \
                   deadline.")
  in
  let max_conns =
    Arg.(value & opt int 0
         & info [ "max-conns" ] ~docv:"N"
             ~doc:"Cap on concurrent connections; at the cap the oldest \
                   idle connection is evicted (or, when every connection \
                   is mid-request, the new one is rejected busy). 0 = \
                   unbounded.")
  in
  let chaos =
    Arg.(value & opt (some string) None
         & info [ "chaos" ] ~docv:"SPEC"
             ~doc:"Seeded fault-injection spec, e.g. \
                   $(b,seed=7,drop_pre=0.1,frame_garbage=0.05\\@3,job_crash=0.02). \
                   Faults fire deterministically from the seed and are \
                   counted in the stats op.")
  in
  let checkpoints =
    Arg.(value & opt (some string) None
         & info [ "checkpoints" ] ~docv:"DIR"
             ~doc:"Write verified per-stage checkpoints for every run \
                   request under $(docv)/<spec>/.")
  in
  let run socket port max_queue workers conn_timeout_s max_conns chaos
      checkpoints engine seg_len speculation regions regional stitch_skew =
    let config =
      config_of ?speculation ?seg_len ?regions ~regional ?stitch_skew ~engine
        ()
    in
    let config = { config with Core.Config.chaos } in
    let server =
      try
        Serve.Server.create ~config ~max_queue ?workers ?conn_timeout_s
          ~max_conns ?checkpoints (sockaddr_of socket port)
      with Invalid_argument msg ->
        Printf.eprintf "contango: %s\n" msg;
        exit 2
    in
    Printf.printf "contango serve: listening on %s (max-queue %d%s)\n%!"
      (sockaddr_string (Serve.Server.sockaddr server))
      max_queue
      (if Serve.Chaos.is_active (Serve.Server.chaos server) then ", chaos on"
       else "");
    Serve.Server.serve server;
    print_endline "contango serve: shut down cleanly"
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the long-lived daemon: concurrent synthesis/evaluation \
             requests over a Unix/TCP socket, with cross-request cache \
             reuse, bounded-queue backpressure, per-request deadlines, \
             connection lifecycle hardening and optional seeded fault \
             injection.")
    Term.(const run $ socket_arg $ port_arg $ max_queue $ workers
          $ conn_timeout $ max_conns $ chaos $ checkpoints $ engine_arg
          $ seg_len_arg $ speculate_arg $ regions_arg $ regional_arg
          $ stitch_skew_arg)

let client_cmd =
  let op =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"OP"
             ~doc:"One of run, eval, sleep, stats, ping, shutdown.")
  in
  let arg =
    Arg.(value & pos 1 (some string) None
         & info [] ~docv:"ARG"
             ~doc:"Benchmark spec for run/eval (e.g. ti:200, grid:4, a .cts \
                   file); seconds for sleep.")
  in
  let timeout =
    Arg.(value & opt (some float) None
         & info [ "timeout" ] ~docv:"SECONDS"
             ~doc:"Per-request budget, measured from admission (queue wait \
                   counts). The server answers a structured deadline error \
                   once it passes.")
  in
  let request_key =
    Arg.(value & opt (some string) None
         & info [ "request-key" ] ~docv:"KEY"
             ~doc:"Idempotency key for run/eval: the daemon answers a \
                   repeated key from its cache instead of recomputing. \
                   With $(b,--retries), one is generated automatically.")
  in
  let retries =
    Arg.(value & opt int 0
         & info [ "retries" ] ~docv:"N"
             ~doc:"Retry the request up to $(docv) extra times with \
                   jittered exponential backoff, honouring the daemon's \
                   retry-after hint on busy. Run/eval retries reuse one \
                   idempotency key, so the work happens at most once.")
  in
  let run socket port op arg timeout_s request_key retries =
    let addr = sockaddr_of socket port in
    let needs_spec what =
      match arg with
      | Some s -> s
      | None ->
        Printf.eprintf "contango: client %s needs a benchmark spec\n" what;
        exit 2
    in
    let request =
      match op with
      | "run" ->
        Serve.Protocol.Run
          { spec = needs_spec "run"; timeout_s; request_key }
      | "eval" ->
        Serve.Protocol.Eval
          { spec = needs_spec "eval"; timeout_s; request_key }
      | "sleep" ->
        let seconds =
          match Option.bind arg float_of_string_opt with
          | Some s -> s
          | None ->
            Printf.eprintf "contango: client sleep needs a seconds number\n";
            exit 2
        in
        Serve.Protocol.Sleep { seconds; timeout_s }
      | "stats" -> Serve.Protocol.Stats
      | "ping" -> Serve.Protocol.Ping
      | "shutdown" -> Serve.Protocol.Shutdown
      | other ->
        Printf.eprintf "contango: unknown client op %S\n" other;
        exit 2
    in
    let exchange addr req =
      if retries > 0 then Serve.Client.request_with_retry ~retries addr req
      else Serve.Client.oneshot addr req
    in
    match exchange addr request with
    | exception Unix.Unix_error (e, _, _)
      when request = Serve.Protocol.Shutdown
           && (e = Unix.ENOENT || e = Unix.ECONNREFUSED) ->
      (* Stopping a daemon that is not running is the requested end
         state. This also covers a retried shutdown whose first answer
         was lost: the daemon honoured the request, unlinked its socket
         and the retry finds nothing to talk to. *)
      print_endline
        (Suite.Report.Json.to_compact_string
           (Serve.Protocol.encode_response
              (Serve.Protocol.Completed
                 { op = "shutdown"; body = Serve.Protocol.Json.Null })))
    | exception Unix.Unix_error (e, _, _) ->
      Printf.eprintf "contango: cannot reach %s: %s\n" (sockaddr_string addr)
        (Unix.error_message e);
      exit 2
    | Error msg ->
      Printf.eprintf "contango: bad response: %s\n" msg;
      exit 2
    | Ok response ->
      (* One compact JSON line — scripts grep or pipe it. Exit code says
         which way it went: 0 ok, 75 (EX_TEMPFAIL) busy, 1 error. *)
      print_endline
        (Suite.Report.Json.to_compact_string
           (Serve.Protocol.encode_response response));
      (match response with
      | Serve.Protocol.Completed _ -> ()
      | Serve.Protocol.Busy _ -> exit 75
      | Serve.Protocol.Failed _ -> exit 1)
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:"Send one request to a running contango serve daemon and print \
             the JSON response.")
    Term.(const run $ socket_arg $ port_arg $ op $ arg $ timeout
          $ request_key $ retries)

let () =
  let info =
    Cmd.info "contango" ~version:"1.0.0"
      ~doc:"Integrated optimization of SoC clock networks (DATE'10 reproduction)."
  in
  exit (Cmd.eval (Cmd.group info
       [ generate_cmd; run_cmd; suite_cmd; pareto_cmd; eval_cmd; svg_cmd;
         netlist_cmd; mc_cmd; mesh_cmd; serve_cmd; client_cmd ]))

(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation section side by side with the published numbers, then times
   the computational kernels with bechamel.

     dune exec bench/main.exe                 (default: Table V up to 10K sinks)
     CONTANGO_BENCH_FULL=1 dune exec bench/main.exe   (adds the 20K/50K rows)
     CONTANGO_BENCH_QUICK=1 dune exec bench/main.exe  (Table V up to 2K, no kernels)

   Artifacts (SVGs) land in bench_out/. *)

open Geometry
module Ev = Analysis.Evaluator

let full = Sys.getenv_opt "CONTANGO_BENCH_FULL" <> None
let quick = Sys.getenv_opt "CONTANGO_BENCH_QUICK" <> None

(* CONTANGO_BENCH_EVAL=1: run only the transient and evaluator-kernel
   benchmarks (writes evaluator_bench.json). *)
let eval_only = Sys.getenv_opt "CONTANGO_BENCH_EVAL" <> None

(* CONTANGO_BENCH_PASSES=1: run only the pass-level speculation benchmark
   (journaled speculative search at widths 1 and 4; writes
   pass_bench.json). *)
let passes_only = Sys.getenv_opt "CONTANGO_BENCH_PASSES" <> None

(* CONTANGO_BENCH_KERNEL=1: run only the flat-arena streaming kernel vs
   boxed reference throughput benchmark (writes kernel_bench.json with a
   top-level speedup_100k field — the CI throughput-regression guard). *)
let kernel_only = Sys.getenv_opt "CONTANGO_BENCH_KERNEL" <> None

(* CONTANGO_BENCH_REGION=1: run only the regional-vs-monolithic flow
   benchmark at ti:20000 (writes region_bench.json with a top-level
   speedup field — the CI regional-performance guard). *)
let region_only = Sys.getenv_opt "CONTANGO_BENCH_REGION" <> None

(* CONTANGO_BENCH_SERVE=1: run only the serve-daemon benchmark — sustained
   concurrent request throughput against an in-process daemon plus the
   cross-request cache-hit rate. Writes bench_out/serve_bench.json. *)
let serve_only = Sys.getenv_opt "CONTANGO_BENCH_SERVE" <> None

(* CONTANGO_BENCH_SURROGATE=1: run only the surrogate-ranking benchmark —
   the Table V family with surrogate ranking off vs on (eval counts and
   final-quality deltas) plus a sequential Pareto sweep measuring the
   cross-point store hit rate. Writes bench_out/surrogate_bench.json;
   CI gates on reduction_pct, accuracy_ok and pareto.hit_rate. *)
let surrogate_only = Sys.getenv_opt "CONTANGO_BENCH_SURROGATE" <> None
let out_dir = "bench_out"

let fmt = Suite.Report.fmt

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

(* ------------------------------------------------------------------ *)
(* Table I: composite inverter analysis                                 *)
(* ------------------------------------------------------------------ *)

let table1 () =
  section "Table I — inverter analysis (paper values are exact inputs)";
  let rows =
    List.map
      (fun (name, cin, cout, r) ->
        let composite =
          match name with
          | "1X Large" -> Tech.Composite.make Tech.Device.large_inverter 1
          | "1X Small" -> Tech.Composite.make Tech.Device.small_inverter 1
          | "2X Small" -> Tech.Composite.make Tech.Device.small_inverter 2
          | "4X Small" -> Tech.Composite.make Tech.Device.small_inverter 4
          | _ -> Tech.Composite.make Tech.Device.small_inverter 8
        in
        [ name; fmt ~decimals:1 cin; fmt ~decimals:1 cout; fmt ~decimals:1 r;
          fmt ~decimals:1 (Tech.Composite.c_in composite);
          fmt ~decimals:1 (Tech.Composite.c_out composite);
          fmt ~decimals:1 (Tech.Composite.r_out composite) ])
      Suite.Report.paper_table1
  in
  print_string
    (Suite.Report.table
       ~title:"(paper: input cap / output cap / output res; ours: computed composite)"
       ~header:[ "type"; "cin"; "cout"; "res"; "cin*"; "cout*"; "res*" ]
       rows);
  (* The §IV-B point: the non-dominated frontier prefers parallel smalls. *)
  let frontier =
    Tech.Composite.non_dominated
      (Tech.Composite.enumerate
         [ Tech.Device.small_inverter; Tech.Device.large_inverter ]
         ~max_count:8)
  in
  Printf.printf "non-dominated frontier (counts <= 8): %s\n"
    (String.concat ", " (List.map Tech.Composite.name frontier))

(* ------------------------------------------------------------------ *)
(* Tables II, III, IV share the per-benchmark flow runs                *)
(* ------------------------------------------------------------------ *)

type bench_result = {
  bench : Suite.Format_io.t;
  flow : Core.Flow.result;
  baseline : Suite.Baseline.result;
}

let run_benchmarks () =
  List.map
    (fun name ->
      let bench = Suite.Gen_ispd.generate name in
      Printf.printf "  running %s (%d sinks, %d obstacles)...%!" name
        (Array.length bench.Suite.Format_io.sinks)
        (List.length bench.Suite.Format_io.obstacles);
      let flow =
        Core.Flow.run ~tech:bench.Suite.Format_io.tech
          ~source:bench.Suite.Format_io.source
          ~obstacles:bench.Suite.Format_io.obstacles bench.Suite.Format_io.sinks
      in
      let baseline = Suite.Baseline.run bench in
      Printf.printf " skew %.2f ps, CLR %.2f ps, %.1f s\n%!"
        flow.Core.Flow.final.Ev.skew flow.Core.Flow.final.Ev.clr
        flow.Core.Flow.seconds;
      { bench; flow; baseline })
    Suite.Gen_ispd.names

let table2 results =
  section "Table II — inverted sinks vs. polarity-correcting inverters";
  let rows =
    List.map
      (fun r ->
        let name = r.bench.Suite.Format_io.name in
        let inv, added = List.assoc name Suite.Report.paper_table2 in
        [ name;
          string_of_int inv; string_of_int added;
          string_of_int r.flow.Core.Flow.polarity.Core.Polarity.inverted_before;
          string_of_int r.flow.Core.Flow.polarity.Core.Polarity.added ])
      results
  in
  print_string
    (Suite.Report.table
       ~title:"(inverted sinks after insertion -> inverters added by the minimal algorithm)"
       ~header:[ "bench"; "inv(paper)"; "add(paper)"; "inv(ours)"; "add(ours)" ]
       rows)

let table3 results =
  section "Table III — progress of individual flow steps (CLR / skew, ps)";
  let step_of (e : Core.Flow.trace_entry) = Core.Flow.step_name e.Core.Flow.step in
  let header =
    "step"
    :: List.concat_map
         (fun r ->
           let n = r.bench.Suite.Format_io.name in
           let short = String.sub n 6 (String.length n - 6) in
           [ short ^ " CLR"; "skew" ])
         results
  in
  let paper_rows =
    List.map
      (fun (step, vals) ->
        (step ^ "(p)")
        :: List.concat_map
             (fun (clr, skew) -> [ fmt ~decimals:1 clr; fmt ~decimals:2 skew ])
             vals)
      Suite.Report.paper_table3
  in
  let our_rows =
    List.map
      (fun step_name ->
        step_name
        :: List.concat_map
             (fun r ->
               let e =
                 List.find
                   (fun e -> step_of e = step_name)
                   r.flow.Core.Flow.trace
               in
               [ fmt ~decimals:1 e.Core.Flow.clr; fmt ~decimals:2 e.Core.Flow.skew ])
             results)
      [ "INITIAL"; "TBSZ"; "TWSZ"; "TWSN"; "BWSN" ]
  in
  let interleaved =
    List.concat (List.map2 (fun a b -> [ a; b ]) paper_rows our_rows)
  in
  print_string (Suite.Report.table ~title:"((p) = paper row)" ~header interleaved)

let table4 results =
  section "Table IV — final results vs. contest teams (CLR ps / cap % / CPU s)";
  let header =
    [ "bench"; "ours CLR"; "cap%"; "s"; "greedy CLR"; "paper CLR"; "NTU";
      "NCTU"; "UMich" ]
  in
  let rows =
    List.map
      (fun r ->
        let name = r.bench.Suite.Format_io.name in
        let cap_pct =
          100. *. r.flow.Core.Flow.final.Ev.stats.Ctree.Stats.total_cap
          /. r.bench.Suite.Format_io.tech.Tech.cap_limit
        in
        let paper = List.assoc name Suite.Report.paper_table4 in
        let team i =
          match List.nth paper i with
          | Some (clr, _, _) -> fmt ~decimals:1 clr
          | None -> "fail"
        in
        [ name;
          fmt ~decimals:2 r.flow.Core.Flow.final.Ev.clr;
          fmt ~decimals:1 cap_pct;
          fmt ~decimals:1 r.flow.Core.Flow.seconds;
          fmt ~decimals:1 r.baseline.Suite.Baseline.eval.Ev.clr;
          team 0; team 1; team 2; team 3 ])
      results
  in
  print_string (Suite.Report.table ~title:"" ~header rows);
  let avg f =
    List.fold_left (fun a r -> a +. f r) 0. results
    /. float_of_int (List.length results)
  in
  let ours = avg (fun r -> r.flow.Core.Flow.final.Ev.clr) in
  let greedy = avg (fun r -> r.baseline.Suite.Baseline.eval.Ev.clr) in
  Printf.printf
    "average CLR: ours %.2f ps, greedy baseline %.2f ps -> %.2fx improvement\n\
     (paper: Contango 14.65 ps, beating NTU 2.15x, NCTU 3.99x, U.Michigan 2.35x)\n"
    ours greedy (greedy /. ours);
  let skews = List.map (fun r -> r.flow.Core.Flow.final.Ev.skew) results in
  Printf.printf "final skews (ps): %s  (paper: 2.2-4.6 ps, avg 3.21 ps)\n"
    (String.concat ", " (List.map (fmt ~decimals:2) skews))

(* ------------------------------------------------------------------ *)
(* Table V: scalability on TI-style benchmarks                          *)
(* ------------------------------------------------------------------ *)

let table5 () =
  section "Table V — scalability (TI-style die, moment-matching engine)";
  let json_rows = ref [] in
  let total_evals = ref 0 in
  let sizes =
    if quick then [ 200; 500; 1_000; 2_000 ]
    else if full then Suite.Gen_ti.family
    else [ 200; 500; 1_000; 2_000; 5_000; 10_000 ]
  in
  let config = Core.Config.scalability in
  let header =
    [ "sinks"; "CLR"; "skew"; "latency"; "cap pF"; "s"; "evals";
      "CLR(p)"; "skew(p)"; "lat(p)"; "cap(p)"; "runs(p)" ]
  in
  let rows =
    List.map
      (fun n ->
        Printf.printf "  running ti%d...%!" n;
        let b = Suite.Gen_ti.generate n in
        let r =
          Core.Flow.run ~config ~tech:b.Suite.Format_io.tech
            ~source:b.Suite.Format_io.source b.Suite.Format_io.sinks
        in
        Printf.printf " %.1f s\n%!" r.Core.Flow.seconds;
        total_evals := !total_evals + r.Core.Flow.eval_runs;
        let final = r.Core.Flow.final in
        json_rows :=
          Suite.Report.Json.Obj
            [
              ("sinks", Suite.Report.Json.Num (float_of_int n));
              ("skew_ps", Suite.Report.Json.Num final.Ev.skew);
              ("clr_ps", Suite.Report.Json.Num final.Ev.clr);
              ("latency_ps", Suite.Report.Json.Num final.Ev.t_max);
              ("cap_pf",
               Suite.Report.Json.Num
                 (final.Ev.stats.Ctree.Stats.total_cap /. 1000.));
              ("seconds", Suite.Report.Json.Num r.Core.Flow.seconds);
              ("eval_runs",
               Suite.Report.Json.Num (float_of_int r.Core.Flow.eval_runs));
            ]
          :: !json_rows;
        let _, pclr, pskew, plat, pcap, _, pruns =
          List.find (fun (m, _, _, _, _, _, _) -> m = n) Suite.Report.paper_table5
        in
        [ string_of_int n;
          fmt ~decimals:2 final.Ev.clr;
          fmt ~decimals:3 final.Ev.skew;
          fmt ~decimals:1 final.Ev.t_max;
          fmt ~decimals:1 (final.Ev.stats.Ctree.Stats.total_cap /. 1000.);
          fmt ~decimals:1 r.Core.Flow.seconds;
          string_of_int r.Core.Flow.eval_runs;
          fmt ~decimals:2 pclr; fmt ~decimals:3 pskew; fmt ~decimals:1 plat;
          fmt ~decimals:1 pcap; string_of_int pruns ])
      sizes
  in
  print_string
    (Suite.Report.table
       ~title:"(ours measured | paper columns suffixed (p); paper runtime was HSPICE-bound)"
       ~header rows);
  if not full then
    print_endline "set CONTANGO_BENCH_FULL=1 for the 20K and 50K rows";
  (List.rev !json_rows, !total_evals)

(* Machine-readable record of the measured results. *)
let write_json results table5_rows =
  let open Suite.Report.Json in
  let flow_json r =
    Obj
      [
        ("name", Str r.bench.Suite.Format_io.name);
        ("sinks", Num (float_of_int (Array.length r.bench.Suite.Format_io.sinks)));
        ("final_skew_ps", Num r.flow.Core.Flow.final.Ev.skew);
        ("final_clr_ps", Num r.flow.Core.Flow.final.Ev.clr);
        ("cap_pct",
         Num
           (100. *. r.flow.Core.Flow.final.Ev.stats.Ctree.Stats.total_cap
            /. r.bench.Suite.Format_io.tech.Tech.cap_limit));
        ("seconds", Num r.flow.Core.Flow.seconds);
        ("eval_runs", Num (float_of_int r.flow.Core.Flow.eval_runs));
        ("baseline_clr_ps", Num r.baseline.Suite.Baseline.eval.Ev.clr);
        ("inverted_sinks",
         Num (float_of_int r.flow.Core.Flow.polarity.Core.Polarity.inverted_before));
        ("polarity_inverters_added",
         Num (float_of_int r.flow.Core.Flow.polarity.Core.Polarity.added));
        ("trace",
         List
           (List.map
              (fun (e : Core.Flow.trace_entry) ->
                Obj
                  [
                    ("step", Str (Core.Flow.step_name e.Core.Flow.step));
                    ("skew_ps", Num e.Core.Flow.skew);
                    ("clr_ps", Num e.Core.Flow.clr);
                  ])
              r.flow.Core.Flow.trace));
      ]
  in
  let json =
    Obj
      [
        ("ispd09", List (List.map flow_json results));
        ("scalability", List table5_rows);
      ]
  in
  let path = Filename.concat out_dir "results.json" in
  Core.Persist.write_atomic path (to_string json);
  Printf.printf "wrote %s\n" path

(* ------------------------------------------------------------------ *)
(* Evaluator kernels: from-scratch vs incremental vs parallel           *)
(* ------------------------------------------------------------------ *)

let time_runs reps f =
  let t0 = Core.Monoclock.now () in
  for _ = 1 to reps do
    f ()
  done;
  (Core.Monoclock.now () -. t0) /. float_of_int reps

(* Accuracy-vs-speed sweep of the adaptive transient kernel on ZST-built
   (skew-balanced, unbuffered) stages: the realistic clock-stage shape,
   where threshold crossings cluster into a few narrow bands and the
   multi-rate march can skip the long flat stretches. The fixed-fine-step
   march is the accuracy reference. *)
let transient_kernel_rows () =
  section "Transient kernel — fixed-step vs adaptive multi-rate";
  let open Suite.Report.Json in
  let module Tr = Analysis.Transient in
  let sizes = if quick then [ 200; 1_000 ] else [ 200; 500; 1_000 ] in
  List.map
    (fun n ->
      let b = Suite.Gen_ti.generate n in
      let tech = b.Suite.Format_io.tech in
      let tree =
        Dme.Zst.build ~tech ~source:b.Suite.Format_io.source
          b.Suite.Format_io.sinks
      in
      let stage = List.hd (Analysis.Rcnet.stages ~seg_len:60_000 tree) in
      let rc = stage.Analysis.Rcnet.rc in
      let r_drv = tech.Tech.source_r and s_drv = tech.Tech.source_slew in
      let ws = Tr.workspace () and fcache = Tr.Fcache.create () in
      let solve mode = Tr.solve ~mode ~fcache ~ws rc ~r_drv ~s_drv in
      let reps = if n >= 1_000 then 3 else 5 in
      let reference = solve Tr.Fixed in
      let t_fixed = time_runs reps (fun () -> ignore (solve Tr.Fixed)) in
      Printf.printf "  %6d sinks (%6d nodes) %-11s %9.2f ms  (reference)\n%!"
        n rc.Analysis.Rcnet.size "fixed" (t_fixed *. 1e3);
      let mode_row (label, mode) =
        let res = solve mode in
        let dmax = ref 0. and smax = ref 0. in
        Array.iteri
          (fun k (d, s) ->
            let d0, s0 = reference.(k) in
            if Float.is_finite d0 || Float.is_finite d then begin
              dmax := Float.max !dmax (Float.abs (d -. d0));
              smax := Float.max !smax (Float.abs (s -. s0))
            end)
          res;
        let t = time_runs reps (fun () -> ignore (solve mode)) in
        let m =
          Tr.simulate ~mode ~fcache ~ws rc ~r_drv ~s_drv
            ~watch:(Array.map fst rc.Analysis.Rcnet.taps)
            ~on_cross:(fun _ _ _ -> ())
        in
        Printf.printf
          "  %6d sinks %-21s %9.2f ms (%5.2fx)  err d %7.4f / s %7.4f ps  \
           solves %d of %d\n%!"
          n label (t *. 1e3) (t_fixed /. t) !dmax !smax m.Tr.solves
          m.Tr.fine_equiv;
        Obj
          [
            ("mode", Str label);
            ("ms", Num (t *. 1e3));
            ("speedup", Num (t_fixed /. t));
            ("max_delay_err_ps", Num !dmax);
            ("max_slew_err_ps", Num !smax);
            ("solves", Num (float_of_int m.Tr.solves));
            ("fine_equiv", Num (float_of_int m.Tr.fine_equiv));
            ("truncated", Num (if m.Tr.truncated then 1. else 0.));
          ]
      in
      let mode_rows =
        List.map mode_row
          [
            ("adaptive8", Tr.Adaptive { mult = 8 });
            ("adaptive16", Tr.Adaptive { mult = 16 });
            ("adaptive32", Tr.Adaptive { mult = 32 });
            ("auto (default)", Tr.Auto { max_mult = 32 });
          ]
      in
      Obj
        [
          ("sinks", Num (float_of_int n));
          ("nodes", Num (float_of_int rc.Analysis.Rcnet.size));
          ("fixed_ms", Num (t_fixed *. 1e3));
          ("modes", List mode_rows);
        ])
    sizes

let evaluator_bench () =
  let transient_rows = transient_kernel_rows () in
  section "Evaluator kernels — from-scratch vs incremental vs parallel";
  let open Suite.Report.Json in
  let config = Core.Config.scalability in
  let engine = config.Core.Config.engine in
  let seg_len = config.Core.Config.seg_len in
  let sizes = if quick then [ 200; 500; 1_000 ] else [ 200; 500; 1_000; 2_000 ] in
  let kernel_rows =
    List.map
      (fun n ->
        let b = Suite.Gen_ti.generate n in
        let tree, _, _, _ =
          Core.Flow.initial_tree ~config ~tech:b.Suite.Format_io.tech
            ~source:b.Suite.Format_io.source b.Suite.Format_io.sinks
        in
        let reps = if n >= 2_000 then 3 else 5 in
        let t_scratch =
          time_runs reps (fun () -> ignore (Ev.evaluate ~engine ~seg_len tree))
        in
        (* A localized edit per repetition (distinct snake each time so the
           whole-result memo cannot short-circuit): the incremental session
           re-solves only the touched stage. *)
        let victim =
          let sinks = Ctree.Tree.sinks tree in
          sinks.(Array.length sinks / 2)
        in
        let bench_session parallel =
          let session =
            Ev.Incremental.create ~engine ~seg_len ~parallel tree
          in
          ignore (Ev.Incremental.refresh session);
          let rep = ref 0 in
          time_runs reps (fun () ->
              incr rep;
              Ctree.Tree.set_snake tree victim (!rep * 200);
              ignore (Ev.Incremental.refresh session))
        in
        let t_incr = bench_session false in
        let t_par = bench_session true in
        Printf.printf
          "  %6d sinks: scratch %8.2f ms | incremental %8.2f ms (%5.1fx) | parallel %8.2f ms\n%!"
          n (t_scratch *. 1e3) (t_incr *. 1e3) (t_scratch /. t_incr)
          (t_par *. 1e3);
        Obj
          [
            ("sinks", Num (float_of_int n));
            ("scratch_ms", Num (t_scratch *. 1e3));
            ("incremental_ms", Num (t_incr *. 1e3));
            ("parallel_ms", Num (t_par *. 1e3));
            ("kernel_speedup", Num (t_scratch /. t_incr));
          ])
      sizes
  in
  let json =
    Obj
      [
        ("transient_kernel", List transient_rows);
        ("kernels", List kernel_rows);
      ]
  in
  let path = Filename.concat out_dir "evaluator_bench.json" in
  Core.Persist.write_atomic path (to_string json);
  Printf.printf "wrote %s\n" path

(* ------------------------------------------------------------------ *)
(* Flat-arena streaming kernel (CONTANGO_BENCH_KERNEL=1)                *)
(* ------------------------------------------------------------------ *)

(* Throughput of the streaming flat kernel against the boxed reference on
   single-stage ZST trees, inflated to the 10K/50K/100K+ RC-node range by
   finer segmentation. Fixed-mode marches measure the raw sweep kernel —
   every step solves the whole tree, so nodes/sec is size × solves / time
   — and the default Auto mode shows the production-shaped gain on top.
   Both kernels march through the shared multi-rate controller, so the
   Fixed solve counts are identical by construction and the accuracy
   columns must agree to well under 1e-9 ps. *)
let kernel_bench () =
  section "Flat-arena kernel — boxed reference vs streaming flat";
  let open Suite.Report.Json in
  let module Tr = Analysis.Transient in
  let module Rcf = Analysis.Rcflat in
  let configs = [ (500, 6_000); (2_000, 5_000); (4_000, 3_500) ] in
  let rows =
    List.map
      (fun (nsinks, seg_len) ->
        let b = Suite.Gen_ti.generate nsinks in
        let tech = b.Suite.Format_io.tech in
        let tree =
          Dme.Zst.build ~tech ~source:b.Suite.Format_io.source
            b.Suite.Format_io.sinks
        in
        let stage = List.hd (Analysis.Rcnet.stages ~seg_len tree) in
        let rc = stage.Analysis.Rcnet.rc in
        let pool = Rcf.compile ~seg_len (Ctree.Arena.compile tree) in
        let si = 0 in
        assert (Rcf.nstages pool = 1);
        let n = rc.Analysis.Rcnet.size in
        let r_drv = tech.Tech.source_r and s_drv = tech.Tech.source_slew in
        let ws = Tr.workspace () in
        let bcache = Tr.Fcache.create ()
        and fcache = Tr.Flat.Fcache.create () in
        let boxed mode = Tr.solve ~mode ~fcache:bcache ~ws rc ~r_drv ~s_drv in
        let flat mode =
          Tr.Flat.solve ~mode ~fcache ~ws pool ~si ~r_drv ~s_drv
        in
        let reference = boxed Tr.Fixed in
        let dmax = ref 0. and smax = ref 0. in
        Array.iteri
          (fun k (d, s) ->
            let d0, s0 = reference.(k) in
            if Float.is_finite d0 || Float.is_finite d then begin
              dmax := Float.max !dmax (Float.abs (d -. d0));
              smax := Float.max !smax (Float.abs (s -. s0))
            end)
          (flat Tr.Fixed);
        let reps = if n >= 40_000 then 1 else 3 in
        (* Solve counts come from the cross-call kernel counters; both
           kernels march through the same controller so the Fixed counts
           match and nodes/sec is directly comparable. *)
        let timed mode run =
          let c0 = (Tr.counters ()).Tr.total_solves in
          let t = time_runs reps (fun () -> ignore (run mode)) in
          let solves = ((Tr.counters ()).Tr.total_solves - c0) / reps in
          (t, solves)
        in
        let t_boxed, solves = timed Tr.Fixed boxed in
        let t_flat, _ = timed Tr.Fixed flat in
        let t_aboxed, _ = timed Tr.default_mode boxed in
        let t_aflat, _ = timed Tr.default_mode flat in
        let nps t = float_of_int n *. float_of_int solves /. t in
        Printf.printf
          "  %6d sinks %7d nodes: fixed boxed %8.1f ms | flat %8.1f ms \
           (%4.2fx, %.1fM nodes/s) | auto %6.1f -> %6.1f ms | err d %.2g / s %.2g ps\n%!"
          nsinks n (t_boxed *. 1e3) (t_flat *. 1e3) (t_boxed /. t_flat)
          (nps t_flat /. 1e6) (t_aboxed *. 1e3) (t_aflat *. 1e3) !dmax !smax;
        (* Sub-femtosecond agreement: the level permutation reorders the
           residual accumulation, so crossings drift by ulps — observed
           ~1e-6 ps at 100K-node stages, guarded at 1e-5 ps. *)
        ( n,
          t_boxed /. t_flat,
          !dmax <= 1e-5 && !smax <= 1e-5,
          Obj
            [
              ("sinks", Num (float_of_int nsinks));
              ("seg_len_nm", Num (float_of_int seg_len));
              ("nodes", Num (float_of_int n));
              ("taps", Num (float_of_int (Array.length rc.Analysis.Rcnet.taps)));
              ("fixed_solves", Num (float_of_int solves));
              ("boxed_ms", Num (t_boxed *. 1e3));
              ("flat_ms", Num (t_flat *. 1e3));
              ("boxed_nodes_per_sec", Num (nps t_boxed));
              ("flat_nodes_per_sec", Num (nps t_flat));
              ("speedup", Num (t_boxed /. t_flat));
              ("auto_boxed_ms", Num (t_aboxed *. 1e3));
              ("auto_flat_ms", Num (t_aflat *. 1e3));
              ("auto_speedup", Num (t_aboxed /. t_aflat));
              ("max_delay_err_ps", Num !dmax);
              ("max_slew_err_ps", Num !smax);
            ] ))
      configs
  in
  let nodes_top, speedup_top, _, _ =
    List.fold_left
      (fun ((bn, _, _, _) as best) ((n, _, _, _) as row) ->
        if n > bn then row else best)
      (List.hd rows) rows
  in
  let accuracy_ok = List.for_all (fun (_, _, ok, _) -> ok) rows in
  Printf.printf "  largest row: %d nodes, %.2fx; accuracy_ok=%b\n%!" nodes_top
    speedup_top accuracy_ok;
  let json =
    Obj
      [
        ("rows", List (List.map (fun (_, _, _, j) -> j) rows));
        ("nodes_100k", Num (float_of_int nodes_top));
        ("speedup_100k", Num speedup_top);
        ("accuracy_ok", Num (if accuracy_ok then 1. else 0.));
      ]
  in
  let path = Filename.concat out_dir "kernel_bench.json" in
  Core.Persist.write_atomic path (to_string json);
  Printf.printf "wrote %s\n" path

(* ------------------------------------------------------------------ *)
(* Figures                                                             *)
(* ------------------------------------------------------------------ *)

let fig1 results =
  section "Figure 1 — the executed methodology (step sequence and IVC)";
  match results with
  | [] -> ()
  | r :: _ ->
    Printf.printf "on %s:\n" r.bench.Suite.Format_io.name;
    List.iter
      (fun (e : Core.Flow.trace_entry) ->
        Printf.printf
          "  %-8s -> skew %8.3f ps  CLR %8.3f ps  (%d evaluations so far)\n"
          (Core.Flow.step_name e.Core.Flow.step)
          e.Core.Flow.skew e.Core.Flow.clr e.Core.Flow.eval_runs)
      r.flow.Core.Flow.trace;
    print_endline
      "  each step iterates mutate->CNE->IVC internally; a failed check\n\
      \  rolls the tree back and moves to the next optimization"

let fig2 () =
  section "Figure 2 — contour detour around a composite obstacle";
  (* The paper's illustration: a composite (L-shaped) obstacle, a source
     to the west, a subtree enclosed by the obstacle. *)
  let rects =
    [ Rect.make ~lx:1_000_000 ~ly:1_000_000 ~hx:2_600_000 ~hy:2_200_000;
      Rect.make ~lx:1_800_000 ~ly:2_200_000 ~hx:2_600_000 ~hy:3_000_000 ]
  in
  let compound = List.hd (Route.Obstacle.compounds rects) in
  let tech = Tech.default45 () in
  let t = Ctree.Tree.create ~tech ~source_pos:(Point.make 0 1_600_000) in
  let inner =
    Ctree.Tree.add_node t ~kind:Ctree.Tree.Internal
      ~pos:(Point.make 1_900_000 1_700_000) ~parent:0 ()
  in
  List.iter
    (fun (label, pos) ->
      ignore
        (Ctree.Tree.add_node t
           ~kind:(Ctree.Tree.Sink { Ctree.Tree.cap = 10.; parity = 0; label })
           ~pos ~parent:inner ()))
    [ ("n", Point.make 2_000_000 3_400_000); ("e", Point.make 3_100_000 1_800_000);
      ("s", Point.make 1_600_000 600_000); ("se", Point.make 2_900_000 900_000) ];
  let result = Route.Detour.apply t compound ~root:inner in
  let t, _ = Ctree.Tree.compact t in
  Printf.printf
    "composite obstacle of %d rectangles, contour perimeter %.2f mm\n"
    (List.length rects)
    (float_of_int (Contour.perimeter compound.Route.Obstacle.contour) /. 1.e6);
  Printf.printf
    "%d attachments; removed arc between contour parameters %d and %d\n"
    result.Route.Detour.attachments (fst result.Route.Detour.cut)
    (snd result.Route.Detour.cut);
  Printf.printf "detour chain wirelength %.2f mm (perimeter minus removed arc)\n"
    (float_of_int result.Route.Detour.chain_wirelength /. 1.e6);
  let svg = Ctree.Svg.render ~obstacles:rects t in
  let path = Filename.concat out_dir "fig2_detour.svg" in
  Ctree.Svg.write_file path svg;
  Printf.printf "wrote %s\n" path

let fig3 results =
  section "Figure 3 — slack-coloured clock tree (fnb1)";
  match
    List.find_opt
      (fun r -> r.bench.Suite.Format_io.name = "ispd09fnb1")
      results
  with
  | None -> ()
  | Some r ->
    let tree = r.flow.Core.Flow.tree in
    let slacks = Core.Slack.combined tree r.flow.Core.Flow.final in
    let hi =
      Array.fold_left
        (fun acc v -> if Float.is_finite v then Float.max acc v else acc)
        0. slacks.Core.Slack.slow
    in
    let edge_color id =
      Ctree.Svg.gradient ~lo:0. ~hi slacks.Core.Slack.slow.(id)
    in
    let svg =
      Ctree.Svg.render ~edge_color
        ~obstacles:r.bench.Suite.Format_io.obstacles tree
    in
    let path = Filename.concat out_dir "fig3_fnb1_tree.svg" in
    Ctree.Svg.write_file path svg;
    Printf.printf
      "wrote %s (sinks as crosses, buffers as blue boxes, red = no\n\
       slow-down slack, green = %.1f ps of slack)\n"
      path hi

(* ------------------------------------------------------------------ *)
(* Ablations: what each design choice buys (on ispd09f22)               *)
(* ------------------------------------------------------------------ *)

let ablations () =
  section "Ablations — design choices on ispd09f22 (final skew / CLR, ps)";
  let bench = Suite.Gen_ispd.generate "ispd09f22" in
  let run_with label config =
    let flow =
      Core.Flow.run ~config ~tech:bench.Suite.Format_io.tech
        ~source:bench.Suite.Format_io.source
        ~obstacles:bench.Suite.Format_io.obstacles bench.Suite.Format_io.sinks
    in
    Printf.printf "  %-34s skew %7.3f  CLR %7.3f  (%d evals, %.1f s)
%!"
      label flow.Core.Flow.final.Ev.skew flow.Core.Flow.final.Ev.clr
      flow.Core.Flow.eval_runs flow.Core.Flow.seconds
  in
  let d = Core.Config.default in
  run_with "full flow (reference)" d;
  run_with "no stage balancing"
    { d with Core.Config.stage_balancing = false };
  run_with "no Elmore pre-balance"
    { d with Core.Config.elmore_prebalance = false };
  run_with "exact van Ginneken (no buckets)"
    { d with Core.Config.vg_buckets = None };
  run_with "Arnoldi engine end-to-end"
    { d with Core.Config.engine = Ev.Arnoldi };
  run_with "single-transition slacks"
    { d with Core.Config.multicorner_slacks = false };
  (* Four graduated wire widths instead of two: finer TWSZ granularity. *)
  (let tech4 =
     Tech.default45_multiwidth
       ~cap_limit:bench.Suite.Format_io.tech.Tech.cap_limit ()
   in
   let flow =
     Core.Flow.run ~tech:tech4 ~source:bench.Suite.Format_io.source
       ~obstacles:bench.Suite.Format_io.obstacles bench.Suite.Format_io.sinks
   in
   Printf.printf "  %-34s skew %7.3f  CLR %7.3f  (%d evals, %.1f s)\n%!"
     "four wire widths" flow.Core.Flow.final.Ev.skew
     flow.Core.Flow.final.Ev.clr flow.Core.Flow.eval_runs
     flow.Core.Flow.seconds);
  (* Bounded-skew construction: wirelength vs. Elmore skew budget. *)
  Printf.printf "  bounded-skew DME (construction only):
";
  List.iter
    (fun budget ->
      let t =
        Dme.Zst.build ~tech:bench.Suite.Format_io.tech
          ~source:bench.Suite.Format_io.source ~skew_budget:budget
          bench.Suite.Format_io.sinks
      in
      let stats = Ctree.Stats.compute t in
      let skew = (Ev.evaluate ~engine:Ev.Elmore_model t).Ev.skew in
      Printf.printf
        "    budget %6.1f ps -> wirelength %7.2f mm (snake %5.2f), elmore          skew %6.2f ps
%!"
        budget
        (float_of_int stats.Ctree.Stats.wirelength /. 1.e6)
        (float_of_int stats.Ctree.Stats.snake_total /. 1.e6)
        skew)
    [ 0.; 10.; 50. ]

(* ------------------------------------------------------------------ *)
(* Variation analysis (paper §I / §IV-H)                                 *)
(* ------------------------------------------------------------------ *)

let variation results =
  section "Variation analysis — Monte-Carlo intra-die perturbations";
  match results with
  | [] -> ()
  | r :: _ ->
    (* 5 % buffer-strength sigma, 2 % wire sigma, 20 trials on the final
       optimized tree of the first benchmark. *)
    let spec =
      { Analysis.Montecarlo.default_spec with Analysis.Montecarlo.trials = 20 }
    in
    let mc = Analysis.Montecarlo.run spec r.flow.Core.Flow.tree in
    Printf.printf
      "on %s (final tree, 20 trials, sigma_buf 5%%, sigma_wire 2%%):
"
      r.bench.Suite.Format_io.name;
    Printf.printf
      "  nominal skew %.2f ps -> mean %.2f ps, worst (effective) %.2f ps,        sigma %.2f ps
"
      mc.Analysis.Montecarlo.nominal_skew mc.Analysis.Montecarlo.mean_skew
      mc.Analysis.Montecarlo.max_skew mc.Analysis.Montecarlo.std_skew;
    print_endline
      "  (the paper's premise: effective skew under variation exceeds
      \   nominal skew, which is why CLR — not nominal skew alone — is
      \   optimized; strong composite buffers keep the gap small)"

(* ------------------------------------------------------------------ *)
(* Kernel micro-benchmarks (bechamel)                                   *)
(* ------------------------------------------------------------------ *)

let kernels () =
  section "Kernel timings (bechamel, monotonic clock)";
  let open Bechamel in
  let tech = Tech.default45 () in
  let rng = Suite.Rng.create 99 in
  let sinks =
    Array.init 200 (fun i ->
        { Dme.Zst.pos =
            Point.make (Suite.Rng.int rng 5_000_000) (Suite.Rng.int rng 5_000_000);
          cap = 10.; parity = 0; label = Printf.sprintf "s%d" i })
  in
  let tree = Dme.Zst.build ~tech ~source:(Point.make 0 2_500_000) sinks in
  let buf = Tech.Composite.make Tech.Device.small_inverter 8 in
  let buffered =
    Buffering.Fast_vg.insert tree ~buf
      ~cap_ceiling:(Route.Slewcap.lumped ~tech ~buf ())
      ()
  in
  let stage = List.hd (List.rev (Analysis.Rcnet.stages buffered)) in
  let rc = stage.Analysis.Rcnet.rc in
  let eval = Ev.evaluate ~engine:Ev.Arnoldi buffered in
  let obstacles =
    [ Rect.make ~lx:1_000_000 ~ly:1_000_000 ~hx:2_000_000 ~hy:2_000_000;
      Rect.make ~lx:3_000_000 ~ly:2_000_000 ~hx:4_000_000 ~hy:4_000_000 ]
  in
  let tests =
    Test.make_grouped ~name:"kernels"
      [
        Test.make ~name:"elmore-stage" (Staged.stage (fun () ->
            ignore (Analysis.Elmore.solve rc ~r_drv:55. ~s_drv:20.)));
        Test.make ~name:"moments-stage" (Staged.stage (fun () ->
            ignore (Analysis.Moments.solve rc ~r_drv:55. ~s_drv:20.)));
        Test.make ~name:"transient-stage" (Staged.stage (fun () ->
            ignore (Analysis.Transient.solve rc ~r_drv:55. ~s_drv:20.)));
        Test.make ~name:"cne-arnoldi-200sinks" (Staged.stage (fun () ->
            ignore (Ev.evaluate ~engine:Ev.Arnoldi buffered)));
        Test.make ~name:"cne-spice-200sinks" (Staged.stage (fun () ->
            ignore (Ev.evaluate ~engine:Ev.Spice buffered)));
        Test.make ~name:"dme-zst-200sinks" (Staged.stage (fun () ->
            ignore (Dme.Zst.build ~tech ~source:(Point.make 0 2_500_000) sinks)));
        Test.make ~name:"vanginneken-fast" (Staged.stage (fun () ->
            ignore
              (Buffering.Fast_vg.insert tree ~buf
                 ~cap_ceiling:(Route.Slewcap.lumped ~tech ~buf ())
                 ())));
        Test.make ~name:"slack-propagation" (Staged.stage (fun () ->
            ignore (Core.Slack.combined buffered eval)));
        Test.make ~name:"maze-route" (Staged.stage (fun () ->
            ignore
              (Grid.route ~obstacles ~src:(Point.make 0 0)
                 ~dst:(Point.make 5_000_000 5_000_000))));
      ]
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None () in
  let raw = Benchmark.all cfg instances tests in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols ->
      match Analyze.OLS.estimates ols with
      | Some [ ns ] -> rows := (name, ns) :: !rows
      | _ -> ())
    results;
  let rows = List.sort (fun (_, a) (_, b) -> Float.compare a b) !rows in
  print_string
    (Suite.Report.table ~title:"" ~header:[ "kernel"; "time/run" ]
       (List.map
          (fun (name, ns) ->
            let pretty =
              if ns > 1e9 then Printf.sprintf "%.2f s" (ns /. 1e9)
              else if ns > 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
              else if ns > 1e3 then Printf.sprintf "%.2f us" (ns /. 1e3)
              else Printf.sprintf "%.0f ns" ns
            in
            [ name; pretty ])
          rows))

(* ------------------------------------------------------------------ *)
(* Pass-level speculation benchmark (CONTANGO_BENCH_PASSES=1)          *)
(* ------------------------------------------------------------------ *)

(* Per-pass wall-clock, IVC attempts and accepts for the journaled
   speculative search at widths 1 and 4, on the 1000-sink TI instance.
   Also records the width-determinism check — widths 1 and 4 must produce
   bit-identical trees and final skew/CLR — and the post-ZST speedup of
   width 4 over width 1 (sum of step_seconds over every step after
   INITIAL). Writes bench_out/pass_bench.json. *)
let pass_bench () =
  section "Pass-level speculation benchmark — ti1000";
  let open Suite.Report.Json in
  let b = Suite.Gen_ti.generate 1_000 in
  let run label speculation =
    Printf.printf "  running %s (speculation = %d)...\n%!" label speculation;
    let config = { Core.Config.default with Core.Config.speculation } in
    let e0 = Ev.eval_count () in
    let r =
      Core.Flow.run ~config ~tech:b.Suite.Format_io.tech
        ~source:b.Suite.Format_io.source b.Suite.Format_io.sinks
    in
    let evals = Ev.eval_count () - e0 in
    Printf.printf
      "    %6.2f s flow, %4d evals, skew %.3f ps, CLR %.3f ps\n%!"
      r.Core.Flow.seconds evals r.Core.Flow.final.Ev.skew
      r.Core.Flow.final.Ev.clr;
    (r, evals)
  in
  let post_zst (r : Core.Flow.result) =
    List.fold_left
      (fun acc (e : Core.Flow.trace_entry) ->
        if e.Core.Flow.step = Core.Flow.Initial then acc
        else acc +. e.Core.Flow.step_seconds)
      0. r.Core.Flow.trace
  in
  let mode_json label speculation ((r : Core.Flow.result), evals) =
    Obj
      [
        ("label", Str label);
        ("speculation", Num (float_of_int speculation));
        ("seconds", Num r.Core.Flow.seconds);
        ("post_zst_seconds", Num (post_zst r));
        ("eval_runs", Num (float_of_int evals));
        ("final_skew_ps", Num r.Core.Flow.final.Ev.skew);
        ("final_clr_ps", Num r.Core.Flow.final.Ev.clr);
        ("steps",
         List
           (List.map
              (fun (e : Core.Flow.trace_entry) ->
                Obj
                  [
                    ("step", Str (Core.Flow.step_name e.Core.Flow.step));
                    ("seconds", Num e.Core.Flow.step_seconds);
                    ("attempts", Num (float_of_int e.Core.Flow.attempts));
                    ("accepts", Num (float_of_int e.Core.Flow.accepts));
                    ("skew_ps", Num e.Core.Flow.skew);
                    ("clr_ps", Num e.Core.Flow.clr);
                  ])
              r.Core.Flow.trace));
      ]
  in
  let serial = run "journaled serial" 1 in
  let wide = run "journaled width 4" 4 in
  let r1, _ = serial and r4, _ = wide in
  let deterministic =
    Ctree.Tree.digest r1.Core.Flow.tree = Ctree.Tree.digest r4.Core.Flow.tree
    && r1.Core.Flow.final.Ev.skew = r4.Core.Flow.final.Ev.skew
    && r1.Core.Flow.final.Ev.clr = r4.Core.Flow.final.Ev.clr
  in
  let speedup = post_zst r1 /. post_zst r4 in
  let cores = Domain.recommended_domain_count () in
  Printf.printf
    "\n  post-ZST: width 1 %.2f s | width 4 %.2f s (%.2fx)\n\
    \  width 4 = width 1 (tree digest, skew, CLR): %b   (cores: %d)\n"
    (post_zst r1) (post_zst r4) speedup deterministic cores;
  let header = [ "step"; "w1 s"; "w4 s"; "att w1"; "acc w1" ] in
  let rows =
    List.map2
      (fun (e1 : Core.Flow.trace_entry) (e4 : Core.Flow.trace_entry) ->
        [
          Core.Flow.step_name e1.Core.Flow.step;
          fmt e1.Core.Flow.step_seconds;
          fmt e4.Core.Flow.step_seconds;
          string_of_int e1.Core.Flow.attempts;
          string_of_int e1.Core.Flow.accepts;
        ])
      r1.Core.Flow.trace r4.Core.Flow.trace
  in
  print_string (Suite.Report.table ~title:"" ~header rows);
  let json =
    Obj
      [
        ("instance", Str "ti1000");
        ("cores", Num (float_of_int cores));
        ("modes",
         List
           [ mode_json "width1" 1 serial; mode_json "width4" 4 wide ]);
        ("post_zst_speedup_width4", Num speedup);
        ("deterministic_across_widths", Bool deterministic);
      ]
  in
  let path = Filename.concat out_dir "pass_bench.json" in
  Core.Persist.write_atomic path (to_string json);
  Printf.printf "wrote %s\n" path

(* ------------------------------------------------------------------ *)
(* Regional vs monolithic end-to-end flow (the PR's headline number)    *)
(* ------------------------------------------------------------------ *)

(* One monolithic and one regional run of the same ti:20000 instance
   under the scalability configuration (flat streaming kernel, 60 µm
   segments). The speedup is algorithmic as much as parallel: each
   region's optimization loops work on a quarter-size tree with sub-ps
   local skew, so none of them (nor the stitched polish) triggers the
   expensive monolithic second pass. *)
let region_bench () =
  let open Suite.Report.Json in
  section "Regional partition + stitch vs monolithic flow (ti:20000)";
  let bench = Suite.Gen_ti.generate 20_000 in
  let base_config =
    { Core.Config.default with
      Core.Config.engine = Ev.Spice;
      flat = true;
      seg_len = 60_000 }
  in
  let workers = max 1 (Domain.recommended_domain_count () - 1) in
  let flow config =
    let t0 = Core.Monoclock.now () in
    let r =
      Core.Flow.run_regional ~config ~tech:bench.Suite.Format_io.tech
        ~source:bench.Suite.Format_io.source
        ~obstacles:bench.Suite.Format_io.obstacles
        bench.Suite.Format_io.sinks
    in
    (r, Core.Monoclock.now () -. t0)
  in
  Printf.printf "  monolithic...%!";
  let mono, mono_s = flow base_config in
  Printf.printf " %.1f s, skew %.3f ps\n%!" mono_s
    mono.Core.Flow.r_flow.Core.Flow.final.Ev.skew;
  Printf.printf "  regional (12 regions, %d workers)...%!" workers;
  let reg, reg_s = flow { base_config with Core.Config.regions = 12 } in
  Printf.printf " %.1f s, skew %.3f ps\n%!" reg_s
    reg.Core.Flow.r_flow.Core.Flow.final.Ev.skew;
  let speedup = mono_s /. reg_s in
  Printf.printf "  speedup %.2fx\n" speedup;
  let region_json (rg : Core.Flow.region_report) =
    Obj
      [
        ("region", Num (float_of_int rg.Core.Flow.rg_index));
        ("sinks", Num (float_of_int rg.Core.Flow.rg_sinks));
        ("skew_ps", Num rg.Core.Flow.rg_skew);
        ("seconds", Num rg.Core.Flow.rg_seconds);
        ("eval_runs", Num (float_of_int rg.Core.Flow.rg_eval_runs));
      ]
  in
  let json =
    Obj
      [
        ("instance", Str "ti20000");
        ("workers", Num (float_of_int workers));
        ("regions", Num 12.);
        ("monolithic_s", Num mono_s);
        ("monolithic_skew_ps", Num mono.Core.Flow.r_flow.Core.Flow.final.Ev.skew);
        ("regional_s", Num reg_s);
        ("regional_skew_ps", Num reg.Core.Flow.r_flow.Core.Flow.final.Ev.skew);
        ("speedup", Num speedup);
        ("region_detail",
         match reg.Core.Flow.r_stitch with
         | None -> List []
         | Some st ->
           List (List.map region_json st.Core.Flow.st_regions));
      ]
  in
  let path = Filename.concat out_dir "region_bench.json" in
  Core.Persist.write_atomic path (to_string json);
  Printf.printf "wrote %s\n" path

(* ------------------------------------------------------------------ *)
(* Serve-daemon benchmark (CONTANGO_BENCH_SERVE=1)                      *)
(* ------------------------------------------------------------------ *)

(* Sustained concurrent throughput against an in-process [contango serve]
   daemon. A warm-up pass populates the shared evaluator/factorization
   store with one run of each spec; the measured phase then replays the
   same specs from several client threads at once, so every request after
   warm-up should be served out of the cross-request store. The headline
   numbers are requests/sec during the measured phase and the
   cross-request hit rate (store hits over store lookups) — the CI gate
   requires the latter to be nonzero. *)
let serve_bench () =
  section "Serve daemon — sustained concurrent requests (shared caches)";
  let open Suite.Report.Json in
  let specs = [| "ti:60"; "ti:100"; "grid:4" |] in
  let clients = 4 and per_client = 6 in
  let path = Filename.concat out_dir "serve_bench.sock" in
  let server =
    Serve.Server.create ~max_queue:32 (Unix.ADDR_UNIX path)
  in
  let addr = Serve.Server.sockaddr server in
  let server_thread = Thread.create Serve.Server.serve server in
  if not (Serve.Client.wait_ready addr) then
    failwith "serve_bench: daemon did not come up";
  let run_request spec =
    match
      Serve.Client.oneshot addr
        (Serve.Protocol.Run { spec; timeout_s = Some 120.; request_key = None })
    with
    | Ok (Serve.Protocol.Completed { body; _ }) -> body
    | Ok (Serve.Protocol.Busy _) -> failwith "serve_bench: unexpected Busy"
    | Ok (Serve.Protocol.Failed { code; detail }) ->
      failwith (Printf.sprintf "serve_bench: request failed (%s): %s" code detail)
    | Error msg -> failwith ("serve_bench: bad response: " ^ msg)
  in
  Printf.printf "  warm-up (%d specs)...\n%!" (Array.length specs);
  Array.iter (fun spec -> ignore (run_request spec)) specs;
  Printf.printf "  measured phase: %d clients x %d requests...\n%!" clients
    per_client;
  let store_hits = Atomic.make 0 and store_lookups = Atomic.make 0 in
  let cache_field body name =
    match to_float (Option.bind (member "cache" body) (member name)) with
    | Some v -> int_of_float v
    | None -> 0
  in
  let t0 = Core.Monoclock.now () in
  let threads =
    List.init clients (fun c ->
        Thread.create
          (fun () ->
            for i = 0 to per_client - 1 do
              let spec = specs.((c + i) mod Array.length specs) in
              let body = run_request spec in
              let h = cache_field body "store_hits"
              and m = cache_field body "store_misses" in
              ignore (Atomic.fetch_and_add store_hits h);
              ignore (Atomic.fetch_and_add store_lookups (h + m))
            done)
          ())
  in
  List.iter Thread.join threads;
  let elapsed = Core.Monoclock.now () -. t0 in
  let total = clients * per_client in
  let rps = float_of_int total /. elapsed in
  let hit_rate =
    if Atomic.get store_lookups = 0 then 0.
    else float_of_int (Atomic.get store_hits)
         /. float_of_int (Atomic.get store_lookups)
  in
  (match Serve.Client.oneshot addr Serve.Protocol.Shutdown with
  | Ok _ -> ()
  | Error msg -> Printf.eprintf "  shutdown response: %s\n" msg);
  Thread.join server_thread;
  Printf.printf
    "  %d requests in %.2f s — %.1f req/s, cross-request hit rate %.3f\n"
    total elapsed rps hit_rate;
  let json =
    Obj
      [
        ("clients", Num (float_of_int clients));
        ("requests", Num (float_of_int total));
        ("seconds", Num elapsed);
        ("requests_per_sec", Num rps);
        ("store_hits", Num (float_of_int (Atomic.get store_hits)));
        ("store_lookups", Num (float_of_int (Atomic.get store_lookups)));
        ("cross_request_hit_rate", Num hit_rate);
        ("specs", List (Array.to_list (Array.map (fun s -> Str s) specs)));
      ]
  in
  let out = Filename.concat out_dir "serve_bench.json" in
  Core.Persist.write_atomic out (to_string json);
  Printf.printf "wrote %s\n" out

(* ------------------------------------------------------------------ *)
(* Surrogate-ranking benchmark: evals off vs on + Pareto store reuse    *)
(* ------------------------------------------------------------------ *)

(* A run counts as an accuracy regression when surrogate-on lands more
   than this much worse than surrogate-off on final skew or CLR. The
   ranked search may take a different (cheaper) path to a different
   local optimum; the tolerance bounds how much quality that path is
   allowed to give up. *)
let surrogate_tol_ps = 0.5

let surrogate_bench () =
  section "Surrogate ranking — Table V family, ranking off vs on";
  let sizes = [ 200; 500; 1_000; 2_000 ] in
  let run_one ~surrogate n =
    let b = Suite.Gen_ti.generate n in
    (* speculation = 1 pins the unranked search to the serial lazy scan:
       at auto width the surrogate-off eval counts would depend on the
       machine's core count (eager parallel batches evaluate would-be
       discarded rungs), and the off column is this benchmark's
       reference. Surrogate-on counts are width-independent by design. *)
    let config =
      { Core.Config.scalability with Core.Config.surrogate; speculation = 1 }
    in
    let r =
      Core.Flow.run ~config ~tech:b.Suite.Format_io.tech
        ~source:b.Suite.Format_io.source b.Suite.Format_io.sinks
    in
    (r.Core.Flow.eval_runs, r.Core.Flow.final, r.Core.Flow.surrogate)
  in
  let rows =
    List.map
      (fun n ->
        Printf.printf "  ti%d off...%!" n;
        let evals_off, off, _ = run_one ~surrogate:false n in
        Printf.printf " %d evals; on...%!" evals_off;
        let evals_on, on, stats = run_one ~surrogate:true n in
        Printf.printf " %d evals\n%!" evals_on;
        (n, evals_off, off, evals_on, on, stats))
      sizes
  in
  let header =
    [ "sinks"; "evals off"; "evals on"; "skew off"; "skew on"; "CLR off";
      "CLR on"; "warm"; "ranked"; "fall"; "saved"; "mispred" ]
  in
  print_string
    (Suite.Report.table ~title:"" ~header
       (List.map
          (fun (n, eo, off, en, on, stats) ->
            let warm, ranked, fall, saved, mis =
              match stats with
              | Some s ->
                Analysis.Surrogate.
                  ( s.warmup_rounds, s.ranked_rounds, s.fallbacks,
                    s.evals_saved, s.mispredicts )
              | None -> (0, 0, 0, 0, 0)
            in
            [ string_of_int n; string_of_int eo; string_of_int en;
              fmt ~decimals:3 off.Ev.skew; fmt ~decimals:3 on.Ev.skew;
              fmt ~decimals:2 off.Ev.clr; fmt ~decimals:2 on.Ev.clr;
              string_of_int warm; string_of_int ranked; string_of_int fall;
              string_of_int saved; string_of_int mis ])
          rows));
  let total f = List.fold_left (fun a r -> a + f r) 0 rows in
  let evals_off = total (fun (_, e, _, _, _, _) -> e) in
  let evals_on = total (fun (_, _, _, e, _, _) -> e) in
  let reduction_pct =
    if evals_off = 0 then 0.
    else 100. *. float_of_int (evals_off - evals_on) /. float_of_int evals_off
  in
  let regressions =
    List.filter
      (fun (_, _, off, _, on, _) ->
        on.Ev.skew > off.Ev.skew +. surrogate_tol_ps
        || on.Ev.clr > off.Ev.clr +. surrogate_tol_ps)
      rows
  in
  let accuracy_ok = regressions = [] in
  Printf.printf
    "eval runs: %d off -> %d on (%.1f%% reduction); accuracy %s\n" evals_off
    evals_on reduction_pct
    (if accuracy_ok then "ok"
     else
       "REGRESSED on "
       ^ String.concat ", "
           (List.map (fun (n, _, _, _, _, _) -> Printf.sprintf "ti%d" n)
              regressions));
  section "Pareto sweep — sequential (jobs=0), shared family stores";
  let b = Suite.Gen_ti.generate 500 in
  let sweep =
    Suite.Pareto.run ~jobs:0 ~config:Core.Config.scalability b
  in
  print_string (Suite.Pareto.table sweep);
  let hits, misses = Suite.Pareto.store_totals sweep in
  let hit_rate = Suite.Pareto.hit_rate sweep in
  Printf.printf "store: %d hits / %d misses (hit rate %.2f)\n" hits misses
    hit_rate;
  let open Suite.Report.Json in
  let stats_json =
    let s =
      List.fold_left
        (fun acc (_, _, _, _, _, stats) ->
          match (acc, stats) with
          | None, s -> s
          | Some a, Some s ->
            Some
              Analysis.Surrogate.
                {
                  observations = a.observations + s.observations;
                  refits = a.refits + s.refits;
                  warmup_rounds = a.warmup_rounds + s.warmup_rounds;
                  ranked_rounds = a.ranked_rounds + s.ranked_rounds;
                  fallbacks = a.fallbacks + s.fallbacks;
                  mispredicts = a.mispredicts + s.mispredicts;
                  evals_saved = a.evals_saved + s.evals_saved;
                }
          | Some _, None -> acc)
        None rows
    in
    match s with
    | None -> Null
    | Some s ->
      Obj
        Analysis.Surrogate.
          [
            ("observations", Num (float_of_int s.observations));
            ("refits", Num (float_of_int s.refits));
            ("warmup_rounds", Num (float_of_int s.warmup_rounds));
            ("ranked_rounds", Num (float_of_int s.ranked_rounds));
            ("fallbacks", Num (float_of_int s.fallbacks));
            ("mispredicts", Num (float_of_int s.mispredicts));
            ("evals_saved", Num (float_of_int s.evals_saved));
          ]
  in
  let json =
    Obj
      [
        ("eval_runs_off", Num (float_of_int evals_off));
        ("eval_runs_on", Num (float_of_int evals_on));
        ("reduction_pct", Num reduction_pct);
        ("accuracy_ok", Bool accuracy_ok);
        ("tolerance_ps", Num surrogate_tol_ps);
        ("rows",
         List
           (List.map
              (fun (n, eo, off, en, on, _) ->
                Obj
                  [
                    ("sinks", Num (float_of_int n));
                    ("evals_off", Num (float_of_int eo));
                    ("evals_on", Num (float_of_int en));
                    ("skew_off_ps", Num off.Ev.skew);
                    ("skew_on_ps", Num on.Ev.skew);
                    ("clr_off_ps", Num off.Ev.clr);
                    ("clr_on_ps", Num on.Ev.clr);
                  ])
              rows));
        ("surrogate", stats_json);
        ("pareto",
         Obj
           [
             ("bench", Str (Suite.Gen_ti.generate 500).Suite.Format_io.name);
             ("hits", Num (float_of_int hits));
             ("misses", Num (float_of_int misses));
             ("hit_rate", Num hit_rate);
             ("points",
              Num (float_of_int (List.length sweep.Suite.Pareto.pr_points)));
           ]);
      ]
  in
  let out = Filename.concat out_dir "surrogate_bench.json" in
  Core.Persist.write_atomic out (to_string json);
  Printf.printf "wrote %s\n" out

(* ------------------------------------------------------------------ *)

let () =
  (try Unix.mkdir out_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let t0 = Core.Monoclock.now () in
  if surrogate_only then begin
    surrogate_bench ();
    Printf.printf "\ntotal harness time: %.1f s\n" (Core.Monoclock.now () -. t0)
  end
  else if serve_only then begin
    serve_bench ();
    Printf.printf "\ntotal harness time: %.1f s\n" (Core.Monoclock.now () -. t0)
  end
  else if region_only then begin
    region_bench ();
    Printf.printf "\ntotal harness time: %.1f s\n" (Core.Monoclock.now () -. t0)
  end
  else if passes_only then begin
    pass_bench ();
    Printf.printf "\ntotal harness time: %.1f s\n" (Core.Monoclock.now () -. t0)
  end
  else if kernel_only then begin
    kernel_bench ();
    Printf.printf "\ntotal harness time: %.1f s\n" (Core.Monoclock.now () -. t0)
  end
  else if eval_only then begin
    evaluator_bench ();
    Printf.printf "\ntotal harness time: %.1f s\n" (Core.Monoclock.now () -. t0)
  end
  else begin
    Printf.printf
      "Contango benchmark harness — reproduces the DATE'10 evaluation\n\
       (engine: backward-Euler transient 'SPICE substitute' for ISPD-scale,\n\
       two-pole moment matching for the TI scalability family)\n";
    table1 ();
    section "Running the seven ISPD'09-style benchmarks through the full flow";
    let results = run_benchmarks () in
    table2 results;
    table3 results;
    table4 results;
    let table5_rows, table5_evals = table5 () in
    write_json results table5_rows;
    (* Deterministic eval-run total of the Table V suite — the CI
       regression guard diffs this against bench/eval_baseline.txt. *)
    Core.Persist.write_atomic
      (Filename.concat out_dir "eval_total.txt")
      (Printf.sprintf "%d\n" table5_evals);
    fig1 results;
    fig2 ();
    fig3 results;
    if not quick then evaluator_bench ();
    if not quick then ablations ();
    if not quick then variation results;
    if not quick then kernels ();
    Printf.printf "\ntotal harness time: %.1f s\n" (Core.Monoclock.now () -. t0)
  end

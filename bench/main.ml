(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation section side by side with the published numbers, then times
   the computational kernels with bechamel.

     dune exec bench/main.exe                 (default: Table V up to 10K sinks)
     CONTANGO_BENCH_FULL=1 dune exec bench/main.exe   (adds the 20K/50K rows)
     CONTANGO_BENCH_QUICK=1 dune exec bench/main.exe  (Table V up to 2K, no kernels)

   Artifacts (results.json, eval_total.txt, SVGs) land in bench_out/, or
   in the untracked bench_out/quick/ for a quick run, so that a quick run
   never overwrites the committed full-run results.json. *)

open Geometry
module Ev = Analysis.Evaluator

let full = Sys.getenv_opt "CONTANGO_BENCH_FULL" <> None
let quick = Sys.getenv_opt "CONTANGO_BENCH_QUICK" <> None
let out_dir = if quick then Filename.concat "bench_out" "quick" else "bench_out"

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

let () =
  List.iter
    (fun d -> try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ())
    [ "bench_out"; out_dir ];
  let t0 = Core.Monoclock.now () in
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
  if not quick then ablations ();
  if not quick then variation results;
  if not quick then kernels ();
  Printf.printf "\ntotal harness time: %.1f s\n" (Core.Monoclock.now () -. t0)

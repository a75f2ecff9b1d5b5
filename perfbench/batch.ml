(* The three batch workloads: a fixed instance set run one instance after
   another through Flow.run (or Flow.run_regional), repeated in passes
   until the run's time is spent. *)

module Ev = Analysis.Evaluator
module Fl = Core.Flow
module Tr = Analysis.Transient
open Measure

type workload = {
  name : string;
  specs : string list;  (** {!Suite.Runner.load_bench} specs, in run order *)
  config : Core.Config.t;
  regional : bool;  (** Flow.run_regional with verified checkpoints *)
}

let ispd_quick =
  { name = "ispd_quick"; specs = Suite.Gen_ispd.names;
    config = Core.Config.default; regional = false }

let ti8k_regional =
  { name = "ti8k_regional"; specs = [ "ti:8000" ];
    config =
      { Core.Config.default with
        Core.Config.engine = Ev.Spice; flat = true; seg_len = 60_000;
        regions = 12 };
    regional = true }

let table5_scal =
  { name = "table5_scal";
    specs = List.map (Printf.sprintf "ti:%d") [ 200; 500; 1_000; 2_000 ];
    config = Core.Config.scalability; regional = false }

let all = [ ispd_quick; ti8k_regional; table5_scal ]

(* Per-instance wall-clock budget; an overrun is a failed instance. *)
let instance_budget_s = 120.

(* ------------------------------------------------------------------ *)
(* Process-global counters, read only around sequential calls           *)
(* ------------------------------------------------------------------ *)

type counters = {
  evals : int;
  solves : int;
  saved : int;
  truncations : int;
  attempts : int;
  accepts : int;
  copies : int;
}

let snapshot () =
  let k = Tr.counters () in
  { evals = Ev.eval_count (); solves = k.Tr.total_solves;
    saved = k.Tr.total_saved; truncations = k.Tr.total_truncations;
    attempts = Core.Ivc.attempts (); accepts = Core.Ivc.accepts ();
    copies = Ctree.Tree.copies () }

let zero =
  { evals = 0; solves = 0; saved = 0; truncations = 0; attempts = 0;
    accepts = 0; copies = 0 }

let add a b =
  { evals = a.evals + b.evals; solves = a.solves + b.solves;
    saved = a.saved + b.saved; truncations = a.truncations + b.truncations;
    attempts = a.attempts + b.attempts; accepts = a.accepts + b.accepts;
    copies = a.copies + b.copies }

let delta a b =
  { evals = b.evals - a.evals; solves = b.solves - a.solves;
    saved = b.saved - a.saved; truncations = b.truncations - a.truncations;
    attempts = b.attempts - a.attempts; accepts = b.accepts - a.accepts;
    copies = b.copies - a.copies }

(* ------------------------------------------------------------------ *)
(* One instance, one pass                                               *)
(* ------------------------------------------------------------------ *)

type run = {
  spec : string;
  bench : Suite.Format_io.t;
  result : Fl.result;
  stitch : Fl.stitch_report option;  (** regional runs only *)
  started : float;
  seconds : float;
  steps : (float * Fl.trace_entry) list;  (** on_step time stamps, in order *)
  counters : counters option;  (** traced passes only *)
}

let rec remove_tree path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let run_instance w ~traced ~ckpt (spec, (b : Suite.Format_io.t)) =
  let config =
    { w.config with Core.Config.deadline = Some (now () +. instance_budget_s) }
  in
  let steps = ref [] in
  let on_step =
    if traced then Some (fun e -> steps := (now (), e) :: !steps) else None
  in
  let c0 = if traced then Some (snapshot ()) else None in
  let flow () =
    let tech = b.Suite.Format_io.tech and source = b.Suite.Format_io.source in
    let obstacles = b.Suite.Format_io.obstacles in
    if w.regional then
      let rr =
        Fl.run_regional ~config ?on_step ~checkpoint_dir:ckpt
          ~jobs:(workers ()) ~tech ~source ~obstacles b.Suite.Format_io.sinks
      in
      (rr.Fl.r_flow, rr.Fl.r_stitch)
    else
      (Fl.run ~config ?on_step ~tech ~source ~obstacles b.Suite.Format_io.sinks, None)
  in
  let started = now () in
  match if traced then Spans.with_span ("flow " ^ spec) flow else flow () with
  | exception e -> Error (spec, Printexc.to_string e)
  | result, stitch ->
    let seconds = now () -. started in
    Ok
      { spec; bench = b; result; stitch; started; seconds; steps = List.rev !steps;
        counters = Option.map (fun c0 -> delta c0 (snapshot ())) c0 }

type pass = {
  traced : bool;
  runs : (run, string * string) result list;
  wall : float;
  rss_mb : float;  (** the process's peak resident set when the pass ended *)
}

let run_pass w ~traced ~ckpt instances =
  remove_tree ckpt;
  let runs, wall =
    time (fun () -> List.map (run_instance w ~traced ~ckpt) instances)
  in
  { traced; runs; wall; rss_mb = peak_rss_mb () }

let completed p = List.filter_map Result.to_option p.runs

(* ------------------------------------------------------------------ *)
(* Correctness gate                                                     *)
(* ------------------------------------------------------------------ *)

let check refs w p =
  List.filter_map
    (fun r ->
      let f = r.result.Fl.final in
      let e = Reference.find refs ~workload:w.name ~instance:r.spec in
      let d = Ctree.Tree.digest r.result.Fl.tree in
      if not (Float.is_finite f.Ev.skew && Float.is_finite f.Ev.clr) then
        Some (Printf.sprintf "%s: non-finite skew/CLR" r.spec)
      else if d <> e.Reference.digest then
        Some
          (Printf.sprintf "%s: tree digest %016Lx, reference %016Lx" r.spec d
             e.Reference.digest)
      else if f.Ev.skew <> e.Reference.skew || f.Ev.clr <> e.Reference.clr then
        Some
          (Printf.sprintf "%s: skew/CLR %.17g/%.17g, reference %.17g/%.17g"
             r.spec f.Ev.skew f.Ev.clr e.Reference.skew e.Reference.clr)
      else None)
    (completed p)

let record_lines w p =
  List.map
    (fun r ->
      Reference.line ~workload:w.name ~instance:r.spec
        ~digest:(Ctree.Tree.digest r.result.Fl.tree)
        ~skew:r.result.Fl.final.Ev.skew ~clr:r.result.Fl.final.Ev.clr)
    (completed p)

(* ------------------------------------------------------------------ *)
(* Set-up and the measured phase                                        *)
(* ------------------------------------------------------------------ *)

(* Instance generation, repeated until [setup_budget_s] is spent (at
   least [setup_min_reps] times); the median is [setup_s]. The host's
   speed shifts within a second, so the budget spans several of its
   states. *)
let setup_budget_s = 2.
let setup_min_reps = 5

let setup w =
  let gen () = List.map (fun s -> (s, Suite.Runner.load_bench s)) w.specs in
  let rec go times n spent =
    if n >= setup_min_reps && spent >= setup_budget_s then List.rev times
    else
      let dt = snd (time gen) in
      go (dt :: times) (n + 1) (spent +. dt)
  in
  let times = go [] 0 0. in
  (gen (), times)

(* Passes until [seconds] is spent: another pass starts only when one
   more of the last pass's length still fits. A traced run alternates
   untraced and traced passes and makes at least one of each, so the
   tracing overhead is measured in the same process. *)
let measure w ~seconds ~trace ~ckpt ~on_pass instances =
  let t0 = now () in
  let rec loop i acc =
    let traced = trace && i mod 2 = 1 in
    let p = run_pass w ~traced ~ckpt instances in
    on_pass p;
    let acc = p :: acc in
    let more = (trace && i = 0) || now () -. t0 +. p.wall <= seconds in
    if more then loop (i + 1) acc else List.rev acc
  in
  loop 0 []

(* ------------------------------------------------------------------ *)
(* End-to-end metrics                                                   *)
(* ------------------------------------------------------------------ *)

(* Each instance's median time over the untraced passes, in run order: a
   burst of interference spoils one run of an instance, not the figure. *)
let instance_medians passes =
  let passes = List.filter (fun p -> not p.traced) passes in
  let runs = List.concat_map completed passes in
  let first = match passes with p :: _ -> completed p | [] -> [] in
  List.map
    (fun r0 ->
      ( r0.spec,
        median
          (List.filter_map
             (fun r -> if r.spec = r0.spec then Some r.seconds else None)
             runs) ))
    first

let end_to_end ~setup_times passes =
  let passes = List.filter (fun p -> not p.traced) passes in
  let first = match passes with p :: _ -> completed p | [] -> [] in
  let per_instance = List.map snd (instance_medians passes) in
  let wall = List.fold_left ( +. ) 0. per_instance in
  let n = List.length per_instance and k = List.length passes in
  let lat = List.map (fun s -> s *. 1e3) per_instance in
  let avg f = mean (List.map f first) in
  [
    metric ~samples:(List.length setup_times) "setup_s" "s" (median setup_times);
    metric ~samples:k "wall_s" "s" wall;
    metric ~samples:n "skew_ps" "ps" (avg (fun r -> r.result.Fl.final.Ev.skew));
    metric ~samples:n "clr_ps" "ps" (avg (fun r -> r.result.Fl.final.Ev.clr));
    (* After the first pass: later passes grow the heap a little further,
       and how many passes fit depends on the machine's speed. *)
    metric "peak_rss_mb" "MB"
      (match passes with p :: _ -> p.rss_mb | [] -> nan);
    metric ~samples:(n * k) "throughput_rps" "1/s" (float_of_int n /. wall);
    (* Quantiles over the instance set of the per-instance medians. *)
    metric ~samples:(n * k) "latency_p50_ms" "ms" (quantile 0.5 lat);
    metric ~samples:(n * k) "latency_p90_ms" "ms" (quantile 0.9 lat);
  ]

(* ------------------------------------------------------------------ *)
(* Per-layer metrics (traced run)                                       *)
(* ------------------------------------------------------------------ *)

let micro_reps = 5

(* Median milliseconds of [micro_reps] calls, recorded as spans. *)
let time_ms name f =
  median
    (List.init micro_reps (fun _ ->
         snd (time (fun () -> Spans.with_span name f)) *. 1e3))

(* Step spans from the on_step time stamps: each gap between consecutive
   callbacks of one flow is the later step's time; the first step starts
   at its callback minus its own reported [step_seconds]. Everything
   before that (construction before INITIAL, or partition plus the region
   flows of a regional run) is the flow's pre-step time. *)
let step_times r =
  match r.steps with
  | [] -> ([], 0.)
  | (ts0, e0) :: _ ->
    let first_start = ts0 -. e0.Fl.step_seconds in
    let rec gaps prev = function
      | [] -> []
      | (ts, e) :: rest -> (Fl.step_name e.Fl.step, prev, ts) :: gaps ts rest
    in
    (gaps first_start r.steps, first_start -. r.started)

let step_names = List.map Fl.step_name Fl.[ Initial; Tbsz; Twsz; Twsn; Bwsn; Stitch; Polish ]

let flow_layers runs =
  let per_step = Hashtbl.create 8 in
  let pre = ref 0. in
  List.iter
    (fun r ->
      let gaps, pre_s = step_times r in
      pre := !pre +. pre_s;
      List.iter
        (fun (name, start, stop) ->
          Spans.add ("flow.step." ^ name) ~start ~stop;
          let old = Option.value (Hashtbl.find_opt per_step name) ~default:0. in
          Hashtbl.replace per_step name (old +. (stop -. start)))
        gaps)
    runs;
  let c =
    List.fold_left
      (fun acc r -> Option.fold ~none:acc ~some:(add acc) r.counters)
      zero runs
  in
  let sum_trace f =
    List.fold_left
      (fun a r -> List.fold_left (fun a e -> a + f e) a r.result.Fl.trace)
      0 runs
  in
  let hits = sum_trace (fun e -> e.Fl.cache_hits)
  and misses = sum_trace (fun e -> e.Fl.cache_misses) in
  let surrogate =
    List.filter_map (fun r -> r.result.Fl.surrogate) runs
  in
  let sur name f =
    if surrogate = [] then na name "count"
    else count name (List.fold_left (fun a s -> a + f s) 0 surrogate)
  in
  List.map
    (fun name ->
      match Hashtbl.find_opt per_step name with
      | Some s -> metric ~samples:(List.length runs) ("flow.step." ^ name ^ "_s") "s" s
      | None -> na ("flow.step." ^ name ^ "_s") "s")
    step_names
  @ [
      metric ~samples:(List.length runs) "flow.pre_step_s" "s" !pre;
      (match List.filter_map (fun r -> r.stitch) runs with
      | [] -> na "flow.regions_s" "s"
      | sts ->
        let regions = List.concat_map (fun st -> st.Fl.st_regions) sts in
        metric ~samples:(List.length regions) "flow.regions_s" "s"
          (List.fold_left (fun a rg -> a +. rg.Fl.rg_seconds) 0. regions));
      count "ivc.eval_runs" c.evals;
      count "ivc.attempts" c.attempts;
      count "ivc.accepts" c.accepts;
      metric ~samples:c.attempts "ivc.accept_ratio" "ratio" (ratio c.accepts c.attempts);
      count "ctree.copies" c.copies;
      Analysis.Surrogate.(sur "surrogate.ranked_rounds" (fun s -> s.ranked_rounds));
      Analysis.Surrogate.(sur "surrogate.evals_saved" (fun s -> s.evals_saved));
      Analysis.Surrogate.(sur "surrogate.mispredicts" (fun s -> s.mispredicts));
      Analysis.Surrogate.(sur "surrogate.fallbacks" (fun s -> s.fallbacks));
      count "evaluator.cache_hits" hits;
      count "evaluator.cache_misses" misses;
      metric ~samples:(hits + misses) "evaluator.hit_ratio" "ratio"
        (ratio hits (hits + misses));
      count "transient.solves" c.solves;
      count "transient.saved" c.saved;
      count "transient.truncations" c.truncations;
    ]

(* Layer costs measured directly on the workload's final trees, after the
   traced pass and with the workload's own engine settings. Stage-level
   numbers use the heaviest stage of the largest final tree. *)
let micro_layers w ~scratch runs =
  let cfg = w.config in
  let engine = cfg.Core.Config.engine and flat = cfg.Core.Config.flat in
  let seg_len = cfg.Core.Config.seg_len in
  let spice = engine = Ev.Spice in
  let flat_path = spice && flat in
  let largest =
    List.fold_left
      (fun best r ->
        if Array.length (Ctree.Tree.sinks r.result.Fl.tree)
           > Array.length (Ctree.Tree.sinks best.result.Fl.tree)
        then r
        else best)
      (List.hd runs) runs
  in
  let tree = largest.result.Fl.tree in
  let tech = Ctree.Tree.tech tree in
  let r_drv = tech.Tech.source_r and s_drv = tech.Tech.source_slew in
  let full_ms =
    List.fold_left
      (fun acc r ->
        acc
        +. snd
             (time (fun () ->
                  Spans.with_span "evaluator.full" (fun () ->
                      Ev.evaluate ~engine ~flat ~seg_len r.result.Fl.tree)))
           *. 1e3)
      0. runs
  in
  let refresh_ms =
    let t = Ctree.Tree.copy tree in
    let session = Ev.Incremental.create ~engine ~flat ~seg_len t in
    ignore (Ev.Incremental.refresh session);
    let sinks = Ctree.Tree.sinks t in
    let victim = sinks.(Array.length sinks / 2) in
    let snake0 = (Ctree.Tree.node t victim).Ctree.Tree.snake in
    let k = ref 0 in
    time_ms "evaluator.refresh" (fun () ->
        incr k;
        let j = Ctree.Tree.Journal.start t in
        Ctree.Tree.set_snake t victim (snake0 + (!k * 200));
        let edits = Core.Speculate.hint_of_journal j in
        Ctree.Tree.Journal.commit j;
        ignore (Ev.Incremental.refresh ?edits session))
  in
  (* The heaviest stage, from the extraction the workload's kernel uses
     (pool stages are in Rcnet.stages order). *)
  let pool = Analysis.Rcflat.compile ~seg_len (Ctree.Arena.compile tree) in
  let heavy_si =
    let best = ref 0 in
    for si = 1 to Analysis.Rcflat.nstages pool - 1 do
      if pool.Analysis.Rcflat.size.(si) > pool.Analysis.Rcflat.size.(!best)
      then best := si
    done;
    !best
  in
  let rc =
    if flat_path then Analysis.Rcflat.stage_rc pool heavy_si
    else (List.nth (Analysis.Rcnet.stages ~seg_len tree) heavy_si).Analysis.Rcnet.rc
  in
  let transient =
    if not spice then [ na "transient.stage_ms" "ms"; na "transient.nodes_per_s" "1/s" ]
    else begin
      let mode = cfg.Core.Config.transient_mode
      and step = cfg.Core.Config.transient_step in
      let ws = Tr.workspace () in
      let solve =
        if flat_path then begin
          let fcache = Tr.Flat.Fcache.create () in
          fun () ->
            ignore
              (Tr.Flat.solve ~step ~mode ~fcache ~ws pool ~si:heavy_si ~r_drv
                 ~s_drv)
        end
        else begin
          let fcache = Tr.Fcache.create () in
          fun () -> ignore (Tr.solve ~step ~mode ~fcache ~ws rc ~r_drv ~s_drv)
        end
      in
      solve ();
      let c0 = (Tr.counters ()).Tr.total_solves in
      let ms = time_ms "transient.stage" solve in
      let solves = ((Tr.counters ()).Tr.total_solves - c0) / micro_reps in
      [ metric ~samples:micro_reps "transient.stage_ms" "ms" ms;
        metric ~samples:micro_reps "transient.nodes_per_s" "1/s"
          (float_of_int (rc.Analysis.Rcnet.size * solves) /. (ms /. 1e3)) ]
    end
  in
  let extraction =
    if flat_path then
      [ na "rcnet.stages_ms" "ms";
        metric ~samples:micro_reps "arena.compile_ms" "ms"
          (time_ms "arena.compile" (fun () -> ignore (Ctree.Arena.compile tree)));
        metric ~samples:micro_reps "rcflat.compile_ms" "ms"
          (time_ms "rcflat.compile" (fun () ->
               ignore (Analysis.Rcflat.compile ~seg_len pool.Analysis.Rcflat.arena)));
        count "rcflat.nodes" (Analysis.Rcflat.total_nodes pool) ]
    else
      [ metric ~samples:micro_reps "rcnet.stages_ms" "ms"
          (time_ms "rcnet.stages" (fun () ->
               ignore (Analysis.Rcnet.stages ~seg_len tree)));
        na "arena.compile_ms" "ms"; na "rcflat.compile_ms" "ms";
        na "rcflat.nodes" "count" ]
  in
  let moments =
    if engine = Ev.Arnoldi then
      metric ~samples:micro_reps "moments.stage_ms" "ms"
        (time_ms "moments.stage" (fun () ->
             ignore (Analysis.Moments.solve rc ~r_drv ~s_drv)))
    else na "moments.stage_ms" "ms"
  in
  let partition =
    if cfg.Core.Config.regions > 1 then
      metric ~samples:micro_reps "partition.split_ms" "ms"
        (time_ms "partition.split" (fun () ->
             ignore
               (Core.Partition.split ~regions:cfg.Core.Config.regions
                  largest.bench.Suite.Format_io.sinks)))
    else na "partition.split_ms" "ms"
  in
  let persist =
    if not w.regional then
      [ na "persist.ckpt_bytes" "bytes"; na "persist.save_ms" "ms";
        na "persist.load_ms" "ms" ]
    else begin
      let r = largest.result in
      let dir = Filename.concat scratch "persist" in
      let metas =
        List.map
          (fun (e : Fl.trace_entry) ->
            { Fl.m_step = e.Fl.step; m_skew = e.Fl.skew; m_clr = e.Fl.clr;
              m_t_max = e.Fl.t_max; m_slew_waived = false; m_cap_waived = false })
          r.Fl.trace
      in
      let save_ms =
        time_ms "persist.save" (fun () ->
            Fl.Checkpoint.save ~dir ~step:Fl.Polish ~tree ~buf:r.Fl.chosen_buf
              ~polarity:r.Fl.polarity ~repair:r.Fl.repair ~metas)
      in
      let file = Fl.Checkpoint.path ~dir Fl.Polish in
      let bytes = (Unix.stat file).Unix.st_size in
      let load_ms =
        time_ms "persist.load" (fun () ->
            match Fl.Checkpoint.load ~tech file with
            | Ok _ -> ()
            | Error e -> failwith ("checkpoint load: " ^ e))
      in
      remove_tree dir;
      [ metric "persist.ckpt_bytes" "bytes" (float_of_int bytes);
        metric ~samples:micro_reps "persist.save_ms" "ms" save_ms;
        metric ~samples:micro_reps "persist.load_ms" "ms" load_ms ]
    end
  in
  [ metric ~samples:(List.length runs) "evaluator.full_ms" "ms" full_ms;
    metric ~samples:micro_reps "evaluator.refresh_ms" "ms" refresh_ms ]
  @ extraction @ transient @ [ moments; partition ] @ persist

(* Construction alone: Flow.initial_tree on every instance. *)
let initial_tree_layer w instances =
  let s =
    List.fold_left
      (fun acc (_, (b : Suite.Format_io.t)) ->
        acc
        +. snd
             (time (fun () ->
                  Spans.with_span "flow.initial_tree" (fun () ->
                      Fl.initial_tree ~config:w.config ~tech:b.Suite.Format_io.tech
                        ~source:b.Suite.Format_io.source
                        ~obstacles:b.Suite.Format_io.obstacles
                        b.Suite.Format_io.sinks))))
      0. instances
  in
  metric ~samples:(List.length instances) "flow.initial_tree_s" "s" s

let per_layer w ~scratch instances passes =
  let traced = List.filter (fun p -> p.traced) passes in
  let untraced = List.filter (fun p -> not p.traced) passes in
  let last_traced = completed (List.nth traced (List.length traced - 1)) in
  let overhead =
    let m ps = median (List.map (fun p -> p.wall) ps) in
    metric
      ~samples:(List.length passes)
      "trace.overhead_pct" "%"
      (100. *. (m traced -. m untraced) /. m untraced)
  in
  (initial_tree_layer w instances :: flow_layers last_traced)
  @ micro_layers w ~scratch last_traced
  @ [ overhead ]

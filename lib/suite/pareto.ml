module Flow = Core.Flow
module Config = Core.Config
module Ev = Analysis.Evaluator
module Json = Report.Json

type knob = {
  k_label : string;
  k_multiwidth : bool;
  k_composite_counts : int list option;
  k_snake_unit : int option;
  k_max_snake_per_round : int option;
  k_transient_mode : Analysis.Transient.mode option;
  k_speculation : int option;
}

let point label =
  {
    k_label = label;
    k_multiwidth = false;
    k_composite_counts = None;
    k_snake_unit = None;
    k_max_snake_per_round = None;
    k_transient_mode = None;
    k_speculation = None;
  }

(* The speculation-width points trace bit-identical trees (width changes
   only the schedule), so they exercise the runtime axis while their
   stage solves land almost entirely in the shared store — the sweep's
   guaranteed-reuse points. Baseline first: with sequential jobs every
   later point starts against a warm store. *)
let default_grid =
  [
    point "baseline";
    { (point "spec-serial") with k_speculation = Some 1 };
    { (point "spec-2") with k_speculation = Some 2 };
    { (point "spec-3") with k_speculation = Some 3 };
    { (point "spec-4") with k_speculation = Some 4 };
    { (point "spec-8") with k_speculation = Some 8 };
    { (point "buffers-coarse") with
      k_composite_counts = Some [ 64; 32; 16; 8; 4; 2; 1 ] };
    { (point "multiwidth") with k_multiwidth = true };
    { (point "snake-fine") with k_snake_unit = Some 1_000 };
    { (point "snake-coarse") with k_snake_unit = Some 4_000 };
    { (point "transient-fixed") with
      k_transient_mode = Some Analysis.Transient.Fixed };
  ]

type metrics = {
  pm_skew_ps : float;
  pm_clr_ps : float;
  pm_t_max_ps : float;
  pm_cap_ff : float;
  pm_cap_pct : float;
  pm_buffers : int;
  pm_eval_runs : int;
}

type point_report = {
  pt_label : string;
  pt_family : string;
  pt_seconds : float;
  pt_store_hits : int;
  pt_store_misses : int;
  pt_outcome : (metrics, string) result;
  pt_on_front : bool;
}

type t = {
  pr_bench : string;
  pr_points : point_report list;
  pr_seconds : float;
}

let knob_config base k =
  let c = base in
  let c =
    match k.k_composite_counts with
    | Some l -> { c with Config.composite_counts = l }
    | None -> c
  in
  let c =
    match k.k_snake_unit with
    | Some n -> { c with Config.snake_unit = n }
    | None -> c
  in
  let c =
    match k.k_max_snake_per_round with
    | Some n -> { c with Config.max_snake_per_round = n }
    | None -> c
  in
  let c =
    match k.k_transient_mode with
    | Some m -> { c with Config.transient_mode = m }
    | None -> c
  in
  match k.k_speculation with
  | Some n -> { c with Config.speculation = n }
  | None -> c

let engine_word = function
  | Ev.Spice -> "spice"
  | Ev.Arnoldi -> "arnoldi"
  | Ev.Elmore_model -> "elmore"

let mode_word = function
  | Analysis.Transient.Fixed -> "fixed"
  | Analysis.Transient.Adaptive { mult } -> Printf.sprintf "adaptive%d" mult
  | Analysis.Transient.Auto { max_mult } -> Printf.sprintf "auto%d" max_mult

(* Two points may share a store only while the kernel numerics that
   computed its entries match — the same gate {!Core.Flow} applies to
   degraded retries. Content-level knobs (buffer counts, snaking, wire
   widths, speculation) change which stages exist, not how a given stage
   solves, so they stay in one family. *)
let family_of (c : Config.t) =
  Printf.sprintf "%s%s/seg%d/step%g/%s" (engine_word c.Config.engine)
    (if c.Config.flat then "+flat" else "")
    c.Config.seg_len c.Config.transient_step
    (mode_word c.Config.transient_mode)

let run ?timeout ?jobs ?(config = Config.default) ?(grid = default_grid)
    (b : Format_io.t) =
  let t0 = Core.Monoclock.now () in
  (* Family stores and per-point handles are set up sequentially, before
     the parallel map — the stores themselves are lock-striped and safe
     to share, the bookkeeping hashtable is not. *)
  let stores = Hashtbl.create 4 in
  let prepared =
    Array.of_list
      (List.map
         (fun k ->
           let c = knob_config config k in
           let family = family_of c in
           let store =
             match Hashtbl.find_opt stores family with
             | Some s -> s
             | None ->
               let s = Ev.Store.create () in
               Hashtbl.replace stores family s;
               s
           in
           (k, c, family, Ev.Store.handle store))
         grid)
  in
  let run_point (k, c, family, handle) =
    let t0 = Core.Monoclock.now () in
    let deadline = Option.map (fun s -> t0 +. s) timeout in
    let c = { c with Config.deadline; store = Some handle } in
    let tech =
      if k.k_multiwidth then
        Tech.default45_multiwidth ~cap_limit:b.Format_io.tech.Tech.cap_limit ()
      else b.Format_io.tech
    in
    let outcome =
      match
        Flow.run ~config:c ~tech ~source:b.Format_io.source
          ~obstacles:b.Format_io.obstacles b.Format_io.sinks
      with
      | r ->
        let final = r.Flow.final in
        let stats = final.Ev.stats in
        let cap_limit = tech.Tech.cap_limit in
        Ok
          {
            pm_skew_ps = final.Ev.skew;
            pm_clr_ps = final.Ev.clr;
            pm_t_max_ps = final.Ev.t_max;
            pm_cap_ff = stats.Ctree.Stats.total_cap;
            pm_cap_pct =
              (if cap_limit = infinity then nan
               else 100. *. stats.Ctree.Stats.total_cap /. cap_limit);
            pm_buffers = stats.Ctree.Stats.buffer_count;
            pm_eval_runs = r.Flow.eval_runs;
          }
      | exception Core.Ivc.Deadline_exceeded ->
        Error
          (Printf.sprintf "exceeded the %gs wall-clock budget"
             (Option.value timeout ~default:nan))
      | exception e -> Error (Printexc.to_string e)
    in
    {
      pt_label = k.k_label;
      pt_family = family;
      pt_seconds = Core.Monoclock.now () -. t0;
      pt_store_hits = Ev.Store.hits handle;
      pt_store_misses = Ev.Store.misses handle;
      pt_outcome = outcome;
      pt_on_front = false;
    }
  in
  let pool = Analysis.Domain_pool.create ?size:jobs () in
  let points =
    Fun.protect
      ~finally:(fun () -> Analysis.Domain_pool.shutdown pool)
      (fun () -> Analysis.Domain_pool.map pool run_point prepared)
  in
  (* Non-dominated front over (skew, CLR, cap, runtime): a point is off
     the front iff some other completed point is at least as good on
     every axis and strictly better on one. *)
  let axes = function
    | { pt_outcome = Ok m; pt_seconds; _ } ->
      Some [| m.pm_skew_ps; m.pm_clr_ps; m.pm_cap_ff; pt_seconds |]
    | { pt_outcome = Error _; _ } -> None
  in
  let dominates a b =
    let le = ref true and lt = ref false in
    Array.iteri
      (fun i av ->
        if av > b.(i) then le := false;
        if av < b.(i) then lt := true)
      a;
    !le && !lt
  in
  let points =
    Array.to_list
      (Array.map
         (fun p ->
           match axes p with
           | None -> p
           | Some own ->
             let dominated =
               Array.exists
                 (fun q ->
                   match axes q with
                   | Some other -> q != p && dominates other own
                   | None -> false)
                 points
             in
             { p with pt_on_front = not dominated })
         points)
  in
  { pr_bench = b.Format_io.name; pr_points = points;
    pr_seconds = Core.Monoclock.now () -. t0 }

let store_totals r =
  List.fold_left
    (fun (h, m) p -> (h + p.pt_store_hits, m + p.pt_store_misses))
    (0, 0) r.pr_points

let hit_rate r =
  let h, m = store_totals r in
  if h + m = 0 then 0. else float_of_int h /. float_of_int (h + m)

let table r =
  let rows =
    List.map
      (fun p ->
        let skew, clr, cap, evals =
          match p.pt_outcome with
          | Ok m ->
            ( Report.fmt ~decimals:2 m.pm_skew_ps,
              Report.fmt ~decimals:2 m.pm_clr_ps,
              Report.fmt ~decimals:1 (m.pm_cap_ff /. 1000.),
              string_of_int m.pm_eval_runs )
          | Error _ -> ("-", "-", "-", "-")
        in
        let reuse =
          let total = p.pt_store_hits + p.pt_store_misses in
          if total = 0 then "-"
          else
            Printf.sprintf "%.0f%%"
              (100. *. float_of_int p.pt_store_hits /. float_of_int total)
        in
        [ p.pt_label; skew; clr; cap; evals;
          Report.fmt ~decimals:1 p.pt_seconds; reuse;
          (if p.pt_on_front then "*" else
           match p.pt_outcome with Ok _ -> "" | Error _ -> "failed") ])
      r.pr_points
  in
  Report.table
    ~title:
      (Printf.sprintf
         "Pareto sweep — %s (front members starred; reuse = shared-store \
          hit rate)"
         r.pr_bench)
    ~header:
      [ "point"; "skew ps"; "CLR ps"; "cap pF"; "evals"; "s"; "reuse";
        "front" ]
    rows

let point_json p =
  let base =
    [
      ("label", Json.Str p.pt_label);
      ("family", Json.Str p.pt_family);
      ("seconds", Json.Num p.pt_seconds);
      ("store_hits", Json.Num (float_of_int p.pt_store_hits));
      ("store_misses", Json.Num (float_of_int p.pt_store_misses));
      ("pareto", Json.Bool p.pt_on_front);
    ]
  in
  let outcome =
    match p.pt_outcome with
    | Ok m ->
      [
        ("status", Json.Str "completed");
        ("skew_ps", Json.Num m.pm_skew_ps);
        ("clr_ps", Json.Num m.pm_clr_ps);
        ("t_max_ps", Json.Num m.pm_t_max_ps);
        ("cap_ff", Json.Num m.pm_cap_ff);
        ("cap_pct", Json.Num m.pm_cap_pct);
        ("buffers", Json.Num (float_of_int m.pm_buffers));
        ("eval_runs", Json.Num (float_of_int m.pm_eval_runs));
      ]
    | Error detail ->
      [ ("status", Json.Str "failed"); ("detail", Json.Str detail) ]
  in
  Json.Obj (base @ outcome)

let to_json r =
  let hits, misses = store_totals r in
  Json.Obj
    [
      ("bench", Json.Str r.pr_bench);
      ("seconds", Json.Num r.pr_seconds);
      ("store",
       Json.Obj
         [
           ("hits", Json.Num (float_of_int hits));
           ("misses", Json.Num (float_of_int misses));
           ("hit_rate", Json.Num (hit_rate r));
         ]);
      ("points", Json.List (List.map point_json r.pr_points));
    ]

let write_json ~out_dir r =
  Core.Persist.mkdir_p out_dir;
  let path = Filename.concat out_dir (r.pr_bench ^ ".pareto.json") in
  Core.Persist.write_atomic path (Json.to_string (to_json r));
  path

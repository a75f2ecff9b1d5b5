(* Flat-kernel throughput guard: the streaming flat-arena kernel against
   the boxed reference on single-stage ZST trees, inflated to the
   10K/50K/100K+ RC-node range by finer segmentation. Fixed-mode marches
   measure the raw sweep kernel — every step solves the whole tree, so
   nodes/sec is size × solves / time — and the default Auto mode shows
   the production-shaped gain on top. Both kernels march through the
   shared multi-rate controller, so the Fixed solve counts are identical
   by construction.

   Gates (exit 1 on failure): the largest row has at least 100K RC nodes
   and the flat kernel is at least 3x the boxed one there (a
   within-process ratio, so robust to runner speed), and the two kernels
   agree to 1e-5 ps on every crossing of every row.

     dune exec test/kernel_guard.exe        (about 10 min on a 2-core VM)

   Not part of [dune runtest]: the boxed 100K-node Fixed march alone
   takes minutes. *)

module Tr = Analysis.Transient
module Rcf = Analysis.Rcflat

let min_nodes = 100_000
let min_speedup = 3.0

(* Sub-femtosecond agreement: the level permutation reorders the residual
   accumulation, so crossings drift by ulps — observed ~1e-6 ps at
   100K-node stages. *)
let max_err_ps = 1e-5

let time_runs reps f =
  let t0 = Core.Monoclock.now () in
  for _ = 1 to reps do
    f ()
  done;
  (Core.Monoclock.now () -. t0) /. float_of_int reps

(* One row: (nodes, fixed-mode speedup, accuracy within [max_err_ps]). *)
let row (nsinks, seg_len) =
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
  let bcache = Tr.Fcache.create () and fcache = Tr.Flat.Fcache.create () in
  let boxed mode = Tr.solve ~mode ~fcache:bcache ~ws rc ~r_drv ~s_drv in
  let flat mode = Tr.Flat.solve ~mode ~fcache ~ws pool ~si ~r_drv ~s_drv in
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
  (* Solve counts come from the cross-call kernel counters. *)
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
    "  %6d sinks %7d nodes: fixed boxed %8.1f ms | flat %8.1f ms (%4.2fx, \
     %.1fM nodes/s) | auto %6.1f -> %6.1f ms | err d %.2g / s %.2g ps\n%!"
    nsinks n (t_boxed *. 1e3) (t_flat *. 1e3) (t_boxed /. t_flat)
    (nps t_flat /. 1e6) (t_aboxed *. 1e3) (t_aflat *. 1e3) !dmax !smax;
  (n, t_boxed /. t_flat, !dmax <= max_err_ps && !smax <= max_err_ps)

let () =
  print_endline "Flat-arena kernel — boxed reference vs streaming flat";
  let rows = List.map row [ (500, 6_000); (2_000, 5_000); (4_000, 3_500) ] in
  let nodes, speedup, _ =
    List.fold_left
      (fun ((bn, _, _) as best) ((n, _, _) as r) -> if n > bn then r else best)
      (List.hd rows) rows
  in
  let accuracy_ok = List.for_all (fun (_, _, ok) -> ok) rows in
  Printf.printf "largest row: %d nodes, %.2fx; accuracy_ok=%b\n%!" nodes
    speedup accuracy_ok;
  let failures =
    List.filter_map
      (fun (bad, msg) -> if bad then Some msg else None)
      [
        ( nodes < min_nodes,
          Printf.sprintf "largest kernel row below %d nodes: %d" min_nodes
            nodes );
        ( speedup < min_speedup,
          Printf.sprintf "flat kernel speedup regressed: %.2fx < %.1fx" speedup
            min_speedup );
        ( not accuracy_ok,
          Printf.sprintf "flat and boxed kernels disagree by more than %g ps"
            max_err_ps );
      ]
  in
  List.iter (Printf.eprintf "kernel guard: %s\n") failures;
  if failures <> [] then exit 1

(* Independent oracle for the evaluator's propagation: a plain tree walk
   over the reference extraction ([Rcnet.stages]) that reads drivers and
   loads straight off the tree's nodes and chains each buffer's launch
   from its input arrival. It shares no code with the evaluator's
   arena/pool propagation, so an evaluation that matches it bit for bit,
   per node and on skew/CLR, is right independently of that path. *)

module Tree = Ctree.Tree
module Ev = Analysis.Evaluator
module Rcnet = Analysis.Rcnet

let check_bool = Alcotest.(check bool)

(* ---------- reference propagation ---------- *)

(* The inverter's internal switching ramp on a ¼ ps grid (the
   evaluator's documented drive model). *)
let ramp_slew in_slew =
  let raw = Float.max 2.0 (0.15 *. in_slew) in
  Float.round (raw *. 4.) /. 4.

type ref_run = {
  r_corner : Tech.Corner.t;
  r_transition : Ev.transition;
  r_latency : float array;
  r_slew : float array;
}

(* One corner × source-transition pass: walk the stages in extraction
   order, solve each with [solve], and launch every tapped buffer's
   stage from its input arrival plus its corner-scaled gate delay. *)
let reference_pass ~solve tree stages (corner : Tech.Corner.t) transition =
  let tech = Tree.tech tree in
  let n = Tree.size tree in
  let latency = Array.make n nan and slew = Array.make n nan in
  let launch = Array.make n nan in
  let out_tr = Array.make n transition in
  let in_slew = Array.make n tech.Tech.source_slew in
  launch.(Tree.root tree) <- 0.;
  List.iter
    (fun { Rcnet.driver; rc } ->
      let tr = out_tr.(driver) in
      let r_base, s_drv =
        match (Tree.node tree driver).Tree.kind with
        | Tree.Source -> (tech.Tech.source_r, tech.Tech.source_slew)
        | Tree.Buffer b ->
          ( (match tr with
            | Ev.Rise -> Tech.Composite.r_up b
            | Ev.Fall -> Tech.Composite.r_down b),
            ramp_slew in_slew.(driver) )
        | Tree.Internal | Tree.Sink _ -> Alcotest.fail "stage driver kind"
      in
      let r_drv = r_base *. corner.Tech.Corner.r_scale in
      let results = solve rc ~r_drv ~s_drv in
      Array.iteri
        (fun k (_, tap) ->
          let d, s = results.(k) in
          let arrival = launch.(driver) +. d in
          match tap with
          | Rcnet.Tap_sink id ->
            latency.(id) <- arrival;
            slew.(id) <- s
          | Rcnet.Tap_buffer id -> (
            latency.(id) <- arrival;
            slew.(id) <- s;
            match (Tree.node tree id).Tree.kind with
            | Tree.Buffer b ->
              let gate_delay =
                (Tech.Composite.d_intrinsic b *. corner.Tech.Corner.d_scale)
                +. (Tech.Composite.slew_coeff b *. s)
              in
              launch.(id) <- arrival +. gate_delay;
              in_slew.(id) <- s;
              out_tr.(id) <-
                (if Tech.Composite.inverting b then Ev.flip tr else tr)
            | _ -> Alcotest.fail "buffer tap on a non-buffer"))
        rc.Rcnet.taps)
    stages;
  { r_corner = corner; r_transition = transition; r_latency = latency;
    r_slew = slew }

let reference ~seg_len ~solve tree =
  let stages = Rcnet.stages ~seg_len tree in
  List.concat_map
    (fun c ->
      List.map (reference_pass ~solve tree stages c) [ Ev.Rise; Ev.Fall ])
    (Tree.tech tree).Tech.corners

(* Skew and CLR from the reference runs: sink spread at the first
   (nominal) corner, and the slowest corner's latest sink minus the
   nominal corner's earliest, worst over both source transitions. *)
let spread tree (r : ref_run) =
  Array.fold_left
    (fun (lo, hi) s ->
      (Float.min lo r.r_latency.(s), Float.max hi r.r_latency.(s)))
    (infinity, neg_infinity) (Tree.sinks tree)

let skew_clr tree runs =
  let corners = (Tree.tech tree).Tech.corners in
  let nominal = List.hd corners in
  let slow =
    List.fold_left
      (fun acc (c : Tech.Corner.t) ->
        if c.Tech.Corner.r_scale > acc.Tech.Corner.r_scale then c else acc)
      nominal corners
  in
  let find (c : Tech.Corner.t) tr =
    List.find
      (fun r ->
        r.r_corner.Tech.Corner.name = c.Tech.Corner.name
        && r.r_transition = tr)
      runs
  in
  let per tr =
    let lo, hi = spread tree (find nominal tr) in
    let _, slow_hi = spread tree (find slow tr) in
    (hi -. lo, slow_hi -. lo)
  in
  let skew_r, clr_r = per Ev.Rise and skew_f, clr_f = per Ev.Fall in
  (Float.max skew_r skew_f, Float.max clr_r clr_f)

(* ---------- bitwise comparison ---------- *)

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let same_array a b =
  Array.length a = Array.length b
  && Array.for_all2 same_bits a b

let check_matches label tree refs (ev : Ev.t) =
  check_bool (label ^ ": run count") true
    (List.length refs = List.length ev.Ev.runs);
  List.iter2
    (fun r (run : Ev.run) ->
      let tag =
        Printf.sprintf "%s: %s %s" label r.r_corner.Tech.Corner.name
          (match r.r_transition with Ev.Rise -> "rise" | Ev.Fall -> "fall")
      in
      check_bool (tag ^ " order") true
        (r.r_corner.Tech.Corner.name = run.Ev.corner.Tech.Corner.name
        && r.r_transition = run.Ev.transition);
      check_bool (tag ^ " latency") true
        (same_array r.r_latency run.Ev.latency);
      check_bool (tag ^ " slew") true (same_array r.r_slew run.Ev.slew))
    refs ev.Ev.runs;
  let skew, clr = skew_clr tree refs in
  check_bool (label ^ ": skew") true (same_bits skew ev.Ev.skew);
  check_bool (label ^ ": clr") true (same_bits clr ev.Ev.clr)

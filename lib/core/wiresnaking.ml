module Tree = Ctree.Tree
module Evaluator = Analysis.Evaluator

type result = {
  eval : Evaluator.t;
  rounds : int;
  snaked_wires : int;
  added_length : int;
  twn : float;
}

(* Probe calibration ({!Probes.calibrate}): snake a few independent
   mid-tree wires by one unit and compare the measured latency increases
   against the Elmore sensitivity prediction. Returns (twn, correction):
   twn is the paper's scalar (worst per-unit latency increase, for
   reporting), and [correction] scales the per-edge sensitivities. *)
let estimate_twn config tree ~baseline =
  let unit = config.Config.snake_unit in
  match
    Probes.pick_probes tree ~count:config.Config.probe_count
      ~min_len:config.Config.snake_probe_min_len ~eligible:(fun _ -> true)
  with
  | [] -> (0., 1.)
  | probes ->
    let sens = Probes.sensitivities tree in
    Probes.calibrate config tree ~baseline probes
      ~perturb:(fun t id ->
        Tree.set_snake t id ((Tree.node t id).Tree.snake + unit))
      ~model:(fun id ->
        Some (1., sens.Probes.snake_delay.(id) *. float_of_int unit))

(* Snaking units for one wire given the remaining slack budget [available]
   (ps) and the remaining slew headroom of its subtree (ps). Applies the
   snake; returns (units, delay consumed, slew consumed). *)
let snake_wire config tree nd ~available ~factor ~correction ~sens ~headroom =
  let unit = config.Config.snake_unit in
  let id = nd.Tree.id in
  let dd = correction *. sens.Probes.snake_delay.(id) *. float_of_int unit in
  let ds = correction *. sens.Probes.snake_slew.(id) *. float_of_int unit in
  (* Absolute safety floor: the linear slew model can underestimate by a
     small factor; never spend the last few ps of headroom. *)
  let headroom = headroom -. 5. in
  if dd <= 1e-9 then (0, 0., 0.)
  else begin
    let max_units = config.Config.max_snake_per_round / unit in
    let slew_units =
      if ds <= 0. then max_units else int_of_float (0.5 *. headroom /. ds)
    in
    let units = int_of_float (available *. factor /. dd) in
    let units = max 0 (min (min units max_units) slew_units) in
    if units = 0 then (0, 0., 0.)
    else begin
      Tree.set_snake tree id (nd.Tree.snake + (units * unit));
      (units, float_of_int units *. dd, float_of_int units *. ds)
    end
  end

(* [slacks], [headrooms] and [sens] are precomputed by the round's plan on
   the un-mutated main tree; node ids are shared with any
   content-identical replica this pass mutates. [count]/[added] are
   attempt telemetry (every explored candidate counts, as before). *)
let topdown_pass config tree ~slacks ~headrooms ~sens ~correction ~scale
    ~count ~added =
  let factor = config.Config.damping *. scale in
  let queue = Queue.create () in
  List.iter
    (fun c -> Queue.add (c, 0., 0.) queue)
    (Tree.node tree (Tree.root tree)).Tree.children;
  while not (Queue.is_empty queue) do
    let id, rslack, rslew = Queue.pop queue in
    let nd = Tree.node tree id in
    let available = slacks.Slack.slow.(id) -. rslack in
    let units, dcons, scons =
      if available > 0. then
        snake_wire config tree nd ~available ~factor ~correction ~sens
          ~headroom:(headrooms.(id) -. rslew)
      else (0, 0., 0.)
    in
    if units > 0 then begin
      incr count;
      added := !added + (units * config.Config.snake_unit)
    end;
    List.iter
      (fun c -> Queue.add (c, rslack +. dcons, rslew +. scons) queue)
      nd.Tree.children
  done

let bottom_pass config tree ~slacks ~headrooms ~sens ~correction ~scale
    ~count ~added =
  let factor = config.Config.damping *. scale in
  Array.iter
    (fun s ->
      let nd = Tree.node tree s in
      let available = slacks.Slack.sink_slow.(s) in
      if available > 0. then begin
        let units, _, _ =
          snake_wire config tree nd ~available ~factor ~correction ~sens
            ~headroom:headrooms.(s)
        in
        if units > 0 then begin
          incr count;
          added := !added + (units * config.Config.snake_unit)
        end
      end)
    (Tree.sinks tree)

let plan_slacks config tree eval =
  let slacks =
    Slack.combined ~multicorner:config.Config.multicorner_slacks tree eval
  in
  (slacks, Probes.subtree_slew_headroom tree eval)

let plan_arrays config tree eval =
  let slacks, headrooms = plan_slacks config tree eval in
  (slacks, headrooms, Probes.sensitivities tree)

(* Slew-recovery round: when fast sinks still hold slow-down slack but
   their wires are slew-pinned (tap slew at the limit), strengthen the
   stage driver — recovering headroom — and immediately re-snake in the
   same IVC round (upsizing alone would speed the subtree up and be
   rejected). The plan picks the drivers once per round. Slacks and
   headrooms read only topology, node kinds and the baseline eval, which
   a buffer rescale leaves alone, so the plan's arrays still hold after
   the upsizing; the sensitivities read driver strength and are
   recomputed by the apply. *)
let recovery_plan config tree eval =
  let tech = Tree.tech tree in
  let slacks, headrooms = plan_slacks config tree eval in
  let rec driver_of i =
    let nd = Tree.node tree i in
    if nd.Tree.parent < 0 then None
    else
      match (Tree.node tree nd.Tree.parent).Tree.kind with
      | Tree.Buffer _ -> Some nd.Tree.parent
      | _ -> driver_of nd.Tree.parent
  in
  let to_upsize = Hashtbl.create 8 in
  Array.iter
    (fun s ->
      if
        slacks.Slack.sink_slow.(s) > 3.
        && headrooms.(s) < 0.05 *. tech.Tech.slew_limit
      then
        match driver_of s with
        | Some b -> Hashtbl.replace to_upsize b ()
        | None -> ())
    (Tree.sinks tree);
  let drivers =
    List.rev (Hashtbl.fold (fun b () acc -> b :: acc) to_upsize [])
  in
  (drivers, slacks, headrooms)

let recovery_pass config tree ~drivers ~slacks ~headrooms ~correction ~scale
    ~count ~added =
  List.iter
    (fun b ->
      match (Tree.node tree b).Tree.kind with
      | Tree.Buffer buf ->
        Tree.set_buffer tree b
          (Tech.Composite.scale buf (1. +. (0.4 *. scale)))
      | _ -> ())
    drivers;
  let sens = Probes.sensitivities tree in
  topdown_pass config tree ~slacks ~headrooms ~sens ~correction ~scale ~count
    ~added

let run config tree ~baseline =
  let twn, correction = estimate_twn config tree ~baseline in
  let count = ref 0 and added = ref 0 in
  let topdown_plan t ev =
    let slacks, headrooms, sens = plan_arrays config t ev in
    fun ~scale t ->
      topdown_pass config t ~slacks ~headrooms ~sens ~correction ~scale ~count
        ~added
  in
  let eval, rounds, _attempts =
    Ivc.adaptive_iterate config tree ~baseline ~objective:Ivc.Skew
      topdown_plan
  in
  (* Alternate slew-recovery and plain rounds until neither helps. *)
  let eval, extra, _ =
    Ivc.adaptive_iterate config tree ~baseline:eval ~objective:Ivc.Skew
      (fun t ev ->
        let drivers, slacks, headrooms = recovery_plan config t ev in
        fun ~scale t ->
          recovery_pass config t ~drivers ~slacks ~headrooms ~correction
            ~scale ~count ~added)
  in
  let eval, more, _ =
    if extra > 0 then
      Ivc.adaptive_iterate config tree ~baseline:eval ~objective:Ivc.Skew
        topdown_plan
    else (eval, 0, 0)
  in
  { eval; rounds = rounds + extra + more; snaked_wires = !count;
    added_length = !added; twn }

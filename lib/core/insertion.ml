module Tree = Ctree.Tree
module Evaluator = Analysis.Evaluator

type result = {
  tree : Tree.t;
  buf : Tech.Composite.t;
  ceiling : float;
  eval : Evaluator.t;
  tried : int;
  repair : Route.Repair.report option;
}

let candidates config tech =
  let composites =
    List.concat_map
      (fun d ->
        List.map
          (fun count -> Tech.Composite.make d count)
          config.Config.composite_counts)
      tech.Tech.devices
  in
  (* Non-dominated under (c_in, r_out); then strongest first. *)
  Tech.Composite.non_dominated composites
  |> List.sort (fun a b ->
         Float.compare (Tech.Composite.r_out a) (Tech.Composite.r_out b))

let run ?(obstacles = []) config tree =
  let tech = Tree.tech tree in
  let budget = (1. -. config.Config.gamma) *. tech.Tech.cap_limit in
  (* Accept only trees with every tap inside both the slew limit and the
     (1 − slew_margin) headroom; the screen stops a candidate's passes at
     the first tap beyond this bound. *)
  let max_slew =
    Float.min tech.Tech.slew_limit
      ((1. -. config.Config.slew_margin) *. tech.Tech.slew_limit)
  in
  let screen t =
    Evaluator.screen ~engine:config.Config.engine
      ~seg_len:config.Config.seg_len ~max_slew t
  in
  let forbidden =
    match obstacles with
    | [] -> fun _ -> false
    | _ ->
      let compounds = Route.Obstacle.compounds obstacles in
      fun p -> List.exists (fun c -> Route.Obstacle.inside c p) compounds
  in
  let tried = ref 0 in
  let try_config buf =
    let slew_free_cap =
      Float.min
        (Route.Slewcap.lumped ~tech ~buf ())
        (Route.Slewcap.wire_aware ~tech ~buf ())
    in
    (* Obstacle repair is configuration-dependent: the slew-free
       capacitance that decides which subtrees need contour detours
       belongs to the composite being tried (Fig. 1's feedback between
       repair and insertion). *)
    let tree, repair =
      match obstacles with
      | [] -> (tree, None)
      | _ ->
        let repaired, report =
          Route.Repair.run tree ~obstacles ~drivable_cap:slew_free_cap
        in
        (repaired, Some report)
    in
    (* Adaptive ceiling: shrink while the accurate evaluation still sees
       slew beyond the bound (the Elmore-level ceiling is optimistic on
       long resistive wires). *)
    let rec attempt ceiling retries =
      incr tried;
      match
        Buffering.Fast_vg.insert tree ~buf ~step:config.Config.vg_step
          ?buckets:config.Config.vg_buckets ~forbidden ~cap_ceiling:ceiling ()
      with
      | exception Buffering.Fast_vg.Infeasible _ -> None
      | buffered ->
        (match screen buffered with
        | Some ev ->
          if ev.Evaluator.stats.Ctree.Stats.total_cap <= budget then
            Some (buffered, ceiling, ev)
          else None (* too much capacitance: configuration too strong *)
        | None ->
          if retries > 0 then attempt (ceiling *. 0.7) (retries - 1) else None)
    in
    match attempt slew_free_cap 8 with
    | Some (buffered, ceiling, ev) -> Some (buffered, ceiling, ev, repair)
    | None -> None
  in
  let rec sweep = function
    | [] ->
      failwith
        "Insertion.run: no composite configuration fits the slew and power \
         constraints"
    | buf :: rest ->
      (match try_config buf with
      | Some (buffered, ceiling, ev, repair) ->
        { tree = buffered; buf; ceiling; eval = ev; tried = !tried; repair }
      | None -> sweep rest)
  in
  sweep (candidates config tech)

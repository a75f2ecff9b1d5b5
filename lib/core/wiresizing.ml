module Tree = Ctree.Tree
module Evaluator = Analysis.Evaluator

type result = {
  eval : Evaluator.t;
  rounds : int;
  downsized : int;
  tws : float;
}

(* Probe calibration for downsizing ({!Probes.calibrate}): downsize a
   few independent mid-tree wires one class and compare against the
   Elmore sensitivity prediction. Returns (tws, correction) — the paper's
   scalar (worst per-nm latency increase) and the calibration factor for
   the per-edge sensitivities. *)
let estimate_tws config tree ~baseline =
  if Array.length (Tree.tech tree).Tech.wires < 2 then (0., 1.)
  else
    match
      Probes.pick_probes tree ~count:config.Config.probe_count
        ~min_len:config.Config.size_probe_min_len
        ~eligible:(fun nd -> nd.Tree.wire_class > 0)
    with
    | [] -> (0., 1.)
    | probes ->
      let sens = Probes.sensitivities tree in
      Probes.calibrate config tree ~baseline probes
        ~perturb:(fun t id ->
          Tree.set_wire_class t id ((Tree.node t id).Tree.wire_class - 1))
        ~model:(fun id ->
          let len = float_of_int (Tree.wire_len (Tree.node tree id)) in
          if len > 0. then Some (len, sens.Probes.size_delay.(id) *. len)
          else None)

(* One top-down pass of Algorithm 1: downsize wires whose slow-down slack
   net of inherited RSlack exceeds the per-edge predicted impact, subject
   to the remaining slew headroom of their subtree. [slacks], [headrooms]
   and [sens] are precomputed by the round's plan on the un-mutated tree
   (ids are shared with any content-identical replica this pass runs
   on). *)
let downsizing_pass config tree ~slacks ~headrooms ~sens ~correction ~scale
    ~count =
  let factor = config.Config.damping *. scale in
  let queue = Queue.create () in
  List.iter
    (fun c -> Queue.add (c, 0., 0.) queue)
    (Tree.node tree (Tree.root tree)).Tree.children;
  while not (Queue.is_empty queue) do
    let id, rslack, rslew = Queue.pop queue in
    let nd = Tree.node tree id in
    let rslack, rslew =
      if nd.Tree.wire_class > 0 then begin
        let len = float_of_int (Tree.wire_len nd) in
        let impact = correction *. sens.Probes.size_delay.(id) *. len in
        let slew_impact = correction *. sens.Probes.size_slew.(id) *. len in
        let available = (slacks.Slack.slow.(id) -. rslack) *. factor in
        if impact > 0. && available > impact
           && slew_impact < 0.5 *. (headrooms.(id) -. rslew -. 5.)
        then begin
          Tree.set_wire_class tree id (nd.Tree.wire_class - 1);
          incr count;
          (rslack +. impact, rslew +. slew_impact)
        end
        else (rslack, rslew)
      end
      else (rslack, rslew)
    in
    List.iter (fun c -> Queue.add (c, rslack, rslew) queue) nd.Tree.children
  done

let run config tree ~baseline =
  let tws, correction = estimate_tws config tree ~baseline in
  if tws <= 0. then { eval = baseline; rounds = 0; downsized = 0; tws }
  else begin
    let count = ref 0 in
    let eval, rounds, _attempts =
      Ivc.adaptive_iterate config tree ~baseline ~objective:Ivc.Skew
        (fun t ev ->
          (* Planned once per round: the O(n) analyses run on the main
             tree; the scale ladder's candidates only replay the walk. *)
          let slacks =
            Slack.combined ~multicorner:config.Config.multicorner_slacks t ev
          in
          let headrooms = Probes.subtree_slew_headroom t ev in
          let sens = Probes.sensitivities t in
          fun ~scale t ->
            downsizing_pass config t ~slacks ~headrooms ~sens ~correction
              ~scale ~count)
    in
    { eval; rounds; downsized = !count; tws }
  end

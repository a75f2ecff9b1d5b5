open Geometry
module Tree = Ctree.Tree

type result = {
  tree : Tree.t;
  eval : Analysis.Evaluator.t;
  seconds : float;
}

(* Centroid embedding: internal nodes at the midpoint of their children,
   no delay balancing. *)
let embed_centroid ~tech ~source ~topo ~(sinks : Dme.Zst.sink_spec array) =
  let tree = Tree.create ~tech ~source_pos:source in
  let rec centroid = function
    | Dme.Topology.Leaf i -> sinks.(i).Dme.Zst.pos
    | Dme.Topology.Node (a, b) -> Point.midpoint (centroid a) (centroid b)
  in
  let rec place topo ~parent =
    match topo with
    | Dme.Topology.Leaf i ->
      let s = sinks.(i) in
      ignore
        (Tree.add_node tree
           ~kind:
             (Tree.Sink
                { Tree.cap = s.Dme.Zst.cap; parity = s.Dme.Zst.parity;
                  label = s.Dme.Zst.label })
           ~pos:s.Dme.Zst.pos ~parent ())
    | Dme.Topology.Node (a, b) ->
      let id =
        Tree.add_node tree ~kind:Tree.Internal ~pos:(centroid topo) ~parent ()
      in
      place a ~parent:id;
      place b ~parent:id
  in
  place topo ~parent:(Tree.root tree);
  tree

let run ?(config = Core.Config.default) (b : Format_io.t) =
  (* Monotonic, like the runner and flow: a wall-clock (NTP) step here
     would corrupt the baseline timing and hence golden-diff tolerances. *)
  let t0 = Core.Monoclock.now () in
  let tech = b.Format_io.tech in
  let positions = Array.map (fun s -> s.Dme.Zst.pos) b.Format_io.sinks in
  let check () = Core.Ivc.check_deadline config in
  let topo = Dme.Topology.generate ~check positions in
  let tree =
    embed_centroid ~tech ~source:b.Format_io.source ~topo ~sinks:b.Format_io.sinks
  in
  (* Fixed mid-strength buffer; shrink the insertion ceiling until the
     result is slew-legal (a disqualified entry would not be a fair
     comparator), but perform no further optimization. *)
  let buf = Tech.Composite.make Tech.Device.small_inverter 8 in
  let evaluate t =
    Analysis.Evaluator.evaluate ~engine:config.Core.Config.engine
      ~seg_len:config.Core.Config.seg_len t
  in
  let rec insert ceiling tries =
    check ();
    let buffered =
      Buffering.Fast_vg.insert ~check tree ~buf ~step:config.Core.Config.vg_step
        ~cap_ceiling:ceiling ()
    in
    ignore
      (Core.Polarity.correct buffered ~buf ~strategy:Core.Polarity.Per_sink);
    check ();
    let eval = evaluate buffered in
    if eval.Analysis.Evaluator.slew_violations = 0 || tries = 0 then
      (buffered, eval)
    else insert (ceiling *. 0.7) (tries - 1)
  in
  let tree, eval = insert (Route.Slewcap.lumped ~tech ~buf ()) 8 in
  { tree; eval; seconds = Core.Monoclock.now () -. t0 }

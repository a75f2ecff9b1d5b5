(* Shared machinery for the ad-hoc linear models of §IV-E/F: pick a few
   independent mid-tree wires, perturb them, run ONE evaluation, and
   measure the worst per-unit latency increase over downstream sinks
   ({!calibrate}). *)

module Tree = Ctree.Tree
module Evaluator = Analysis.Evaluator

let depths tree =
  let n = Tree.size tree in
  let d = Array.make n 0 in
  Array.iter
    (fun i ->
      let nd = Tree.node tree i in
      if nd.Tree.parent >= 0 then d.(i) <- d.(nd.Tree.parent) + 1)
    (Tree.topo_order tree);
  d

(* Up to [count] wires near the middle depth of the tree, pairwise
   independent (no ancestor relation), each of length >= min_len and
   satisfying [eligible]. *)
let pick_probes tree ~count ~min_len ~eligible =
  let d = depths tree in
  let max_depth = Array.fold_left max 0 d in
  let mid = max_depth / 2 in
  let cands = ref [] in
  Tree.iter tree (fun nd ->
      if nd.Tree.parent >= 0 && nd.Tree.geom_len >= min_len && eligible nd then
        cands := (abs (d.(nd.Tree.id) - mid), nd.Tree.id) :: !cands);
  let sorted =
    List.sort
      (fun (a, i) (b, j) -> if a <> b then Int.compare a b else Int.compare i j)
      !cands
  in
  (* Greedily keep ids with disjoint subtrees: reject any id that is an
     ancestor or descendant of an already-kept one. *)
  let ancestor_of a b =
    (* is a an ancestor of b? *)
    let rec up i = if i < 0 then false else if i = a then true else up (Tree.node tree i).Tree.parent in
    up b
  in
  let kept = ref [] in
  List.iter
    (fun (_, id) ->
      if List.length !kept < count
         && not
              (List.exists
                 (fun k -> ancestor_of k id || ancestor_of id k)
                 !kept)
      then kept := id :: !kept)
    sorted;
  !kept

(* Worst latency increase per downstream sink of [id], across the nominal
   rise/fall runs, between [before] and [after]. *)
let worst_increase_of field tree ~before ~after id =
  let sinks = Tree.subtree_sinks tree id in
  let per_run (b : Evaluator.run) (a : Evaluator.run) =
    List.fold_left
      (fun acc s ->
        let d = field a s -. field b s in
        if Float.is_nan d then acc else Float.max acc d)
      0. sinks
  in
  let br = Evaluator.nominal_run before Evaluator.Rise in
  let bf = Evaluator.nominal_run before Evaluator.Fall in
  let ar = Evaluator.nominal_run after Evaluator.Rise in
  let af = Evaluator.nominal_run after Evaluator.Fall in
  Float.max (per_run br ar) (per_run bf af)

let worst_increase tree ~before ~after id =
  worst_increase_of
    (fun (r : Evaluator.run) s -> r.Evaluator.latency.(s))
    tree ~before ~after id

let worst_slew_increase tree ~before ~after id =
  worst_increase_of
    (fun (r : Evaluator.run) s -> r.Evaluator.slew.(s))
    tree ~before ~after id

(* Probe calibration of the §IV-E/F linear models: apply [perturb] at
   every probe under one journal, run ONE evaluation (the journal's dirty
   hint keeps the session on its fast path) and roll back through
   {!Ivc.rollback}, an O(edit) restore reported to the session so its
   anchor chain survives. [model id], read on the perturbed tree, gives a
   probe's normaliser and its Elmore-predicted latency increase, or
   [None] to skip it. Returns the paper's scalar — the worst measured
   increase per normaliser unit — and the correction factor for the
   per-edge sensitivities: the mean measured/predicted ratio, clamped to
   [0.5, 4] so a noisy probe cannot disable the optimizer. *)
let calibrate config tree ~baseline probes ~perturb ~model =
  let j = Tree.Journal.start tree in
  match
    List.iter (perturb tree) probes;
    Ivc.evaluate ~journal:j config tree
  with
  | exception e ->
    (try Ivc.rollback config tree j
     with Invalid_argument _ -> Tree.Journal.abandon j);
    raise e
  | after ->
    let scalar = ref 0. and ratio_sum = ref 0. and ratio_n = ref 0 in
    List.iter
      (fun id ->
        match model id with
        | None -> ()
        | Some (norm, predicted) ->
          let measured = worst_increase tree ~before:baseline ~after id in
          if measured > 0. then scalar := Float.max !scalar (measured /. norm);
          if predicted > 1e-6 && measured > 0. then begin
            ratio_sum := !ratio_sum +. (measured /. predicted);
            incr ratio_n
          end)
      probes;
    Ivc.rollback config tree j;
    let correction =
      if !ratio_n = 0 then 1.
      else Float.min 4. (Float.max 0.5 (!ratio_sum /. float_of_int !ratio_n))
    in
    (!scalar, correction)

(* Per-edge first-order sensitivities under the Elmore model, stage-aware:
   buffers regenerate the signal, so added RC at an edge only matters
   within its stage — through the resistance from the stage driver down to
   the edge (Rup) and the stage-limited downstream capacitance (Cdown).
   Per nm of ADDED wire at the edge: d(delay) = k·(r·Cdown + Rup·c);
   downsizing swaps (r, c) for (Δr, Δc). Slews at the stage taps move
   proportionally (ln9/ln2 ≈ 3.17 × the delay shift of the tap's time
   constant). The probing evaluation calibrates a global correction on top
   of these shapes. *)
type sens = {
  snake_delay : float array;  (* ps per nm of snake at edge i *)
  snake_slew : float array;
  size_delay : float array;   (* ps per nm of downsized wire at edge i *)
  size_slew : float array;
  cdown : float array;        (* stage-limited downstream cap at node i, fF *)
  rup : float array;          (* resistance from stage driver to node i, Ω *)
}

let slew_per_delay = Tech.Units.ln9 /. log 2.

let sensitivities tree =
  let tech = Tree.tech tree in
  let n = Tree.size tree in
  let k = Tech.Units.rc_to_ps in
  (* Stage-limited downstream cap below each node. *)
  let cdown = Array.make n 0. in
  Array.iter
    (fun i ->
      let nd = Tree.node tree i in
      let own =
        match nd.Tree.kind with
        | Tree.Sink s -> s.Tree.cap
        | Tree.Buffer b -> Tech.Composite.c_in b
        | Tree.Source | Tree.Internal -> 0.
      in
      let below =
        match nd.Tree.kind with
        | Tree.Buffer _ -> 0.  (* next stage is regenerated *)
        | _ -> cdown.(i)
      in
      let total = own +. below in
      if nd.Tree.parent >= 0 then
        cdown.(nd.Tree.parent) <-
          cdown.(nd.Tree.parent) +. total +. Tree.wire_cap tree nd)
    (Tree.post_order tree);
  (* Resistance from the stage driver down to each node (driver output
     resistance included). *)
  let rup = Array.make n 0. in
  let driver_r nd =
    match nd.Tree.kind with
    | Tree.Source -> tech.Tech.source_r
    | Tree.Buffer b -> Tech.Composite.r_out b
    | Tree.Internal | Tree.Sink _ -> 0.
  in
  Array.iter
    (fun i ->
      let nd = Tree.node tree i in
      if nd.Tree.parent >= 0 then begin
        let pn = Tree.node tree nd.Tree.parent in
        let base =
          match pn.Tree.kind with
          | Tree.Source | Tree.Buffer _ -> driver_r pn
          | Tree.Internal | Tree.Sink _ -> rup.(nd.Tree.parent)
        in
        let wire = Tree.wire_of tree nd in
        rup.(i) <- base +. Tech.Wire.res wire (Tree.wire_len nd)
      end)
    (Tree.topo_order tree);
  let snake_delay = Array.make n 0. and snake_slew = Array.make n 0. in
  let size_delay = Array.make n 0. and size_slew = Array.make n 0. in
  let narrow_exists = Array.length tech.Tech.wires >= 2 in
  Array.iter
    (fun i ->
      let nd = Tree.node tree i in
      if nd.Tree.parent >= 0 then begin
        let wire = Tree.wire_of tree nd in
        let r = wire.Tech.Wire.res_per_nm and c = wire.Tech.Wire.cap_per_nm in
        let dd = k *. ((r *. cdown.(i)) +. (rup.(i) *. c)) in
        snake_delay.(i) <- dd;
        snake_slew.(i) <- slew_per_delay *. dd;
        if narrow_exists && nd.Tree.wire_class > 0 then begin
          let narrow = Tech.wire tech (nd.Tree.wire_class - 1) in
          let dr = narrow.Tech.Wire.res_per_nm -. r in
          let dc = narrow.Tech.Wire.cap_per_nm -. c in
          let len = float_of_int (Tree.wire_len nd) in
          let rup_mid = rup.(i) -. (r *. len /. 2.) in
          let dsz =
            k *. ((dr *. (cdown.(i) +. (c *. len /. 2.))) +. (rup_mid *. dc))
          in
          size_delay.(i) <- dsz;
          (* Downsizing raises R (slew up) and lowers C (slew down);
             charge only the pessimistic R term against headroom. *)
          size_slew.(i) <- slew_per_delay *. k *. dr *. cdown.(i)
        end
      end)
    (Tree.topo_order tree);
  { snake_delay; snake_slew; size_delay; size_slew; cdown; rup }

(* Per-node slew headroom: the slew limit minus the worst slew at any tap
   of the node's OWN stage below it — sinks and buffer inputs reachable
   without crossing a buffer. Buffers regenerate the edge, so a
   slew-critical tap deep in the tree does not constrain wires above its
   driver. *)
let subtree_slew_headroom tree (eval : Evaluator.t) =
  let n = Tree.size tree in
  let own = Array.make n 0. in
  List.iter
    (fun (r : Evaluator.run) ->
      Array.iteri
        (fun i s ->
          if i < n && (not (Float.is_nan s)) && s > own.(i) then own.(i) <- s)
        r.Evaluator.slew)
    eval.Evaluator.runs;
  let worst = Array.copy own in
  Array.iter
    (fun i ->
      let nd = Tree.node tree i in
      if nd.Tree.parent >= 0 then begin
        (* A buffer contributes only its input-tap slew upward; its
           subtree belongs to the next stage. *)
        let contribution =
          match nd.Tree.kind with
          | Tree.Buffer _ -> own.(i)
          | Tree.Source | Tree.Internal | Tree.Sink _ -> worst.(i)
        in
        if contribution > worst.(nd.Tree.parent) then
          worst.(nd.Tree.parent) <- contribution
      end)
    (Tree.post_order tree);
  let limit = (Tree.tech tree).Tech.slew_limit in
  Array.map (fun w -> limit -. w) worst

(* Shared van-Ginneken-style dynamic program over a clock tree.

   Candidates are (downstream cap, worst Elmore delay to any downstream
   sink, placement set); buffer positions are every [step] nm of electrical
   wirelength plus every tree node. Candidate lists are kept Pareto-minimal
   (cap ascending, delay strictly descending). The [buckets] option
   additionally quantises the cap axis and keeps the best candidate per
   bucket, which bounds list sizes by a constant — the near-linear variant
   in the spirit of Shi & Li's O(n log n) algorithm.

   Placement sets are O(1)-concatenation rope lists so that branch merges
   do not copy. *)

module Tree = Ctree.Tree

type placements =
  | Empty
  | Single of loc
  | Cat of placements * placements

and loc = { wire_id : int; at_elec : int }
(* Buffer at [at_elec] nm of electrical length from the parent end of the
   wire owned by node [wire_id]. *)

type cand = { cap : float; delay : float; places : placements }

let rec flatten acc = function
  | Empty -> acc
  | Single l -> l :: acc
  | Cat (a, b) -> flatten (flatten acc b) a

(* Pareto prune a cap-sorted list: keep strictly improving delay. *)
let pareto cands =
  let sorted =
    List.sort
      (fun a b ->
        if a.cap <> b.cap then Float.compare a.cap b.cap
        else Float.compare a.delay b.delay)
      cands
  in
  let rec go best_delay = function
    | [] -> []
    | c :: rest ->
      if c.delay < best_delay then c :: go c.delay rest else go best_delay rest
  in
  go infinity sorted

let quantise ~buckets ~ceiling cands =
  match buckets with
  | None -> cands
  | Some k ->
    let width = ceiling /. float_of_int k in
    let tbl = Hashtbl.create 32 in
    List.iter
      (fun c ->
        let b = int_of_float (c.cap /. width) in
        match Hashtbl.find_opt tbl b with
        | Some best when best.delay <= c.delay -> ()
        | _ -> Hashtbl.replace tbl b c)
      cands;
    Hashtbl.fold (fun _ c acc -> c :: acc) tbl []

(* Pareto combination of two children lists under (cap sum, delay max):
   for each candidate on one side, pair it with the cheapest candidate on
   the other side whose delay does not exceed it. *)
let combine a b =
  let arr_a = Array.of_list a and arr_b = Array.of_list b in
  let best_partner arr d =
    (* arr sorted cap asc / delay desc: first (cheapest) element with delay
       <= d; binary search on the descending delay. *)
    let n = Array.length arr in
    let lo = ref 0 and hi = ref n in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if arr.(mid).delay <= d then hi := mid else lo := mid + 1
    done;
    if !lo >= n then None else Some arr.(!lo)
  in
  let one_side xs other =
    List.filter_map
      (fun x ->
        match best_partner other x.delay with
        | None -> None
        | Some y ->
          Some
            { cap = x.cap +. y.cap;
              delay = Float.max x.delay y.delay;
              places = Cat (x.places, y.places) })
      xs
  in
  pareto (one_side a arr_b @ one_side b arr_a)

type params = {
  buf : Tech.Composite.t;
  step : int;           (* candidate spacing along wires, nm *)
  ceiling : float;      (* max cap any driver may see, fF *)
  buckets : int option; (* cap-axis quantisation; None = exact *)
  forbidden : Geometry.Point.t -> bool;
      (* no buffer may be placed where this holds (obstacle interiors) *)
}

exception Infeasible of string

(* Solved nodes between two calls of [run]'s [check]: a clock read every
   few hundred nodes costs nothing next to their candidate lists, and
   bounds how long a die-scale run outlives a deadline. *)
let check_every = 256

(* [check] is called every [check_every] solved nodes; whatever it raises
   propagates, abandoning the run. *)
let run ?(check = fun () -> ()) tree p =
  let solved = ref 0 in
  let k = Tech.Units.rc_to_ps in
  let buf_r = Tech.Composite.r_out p.buf in
  let buf_cout = Tech.Composite.c_out p.buf in
  let buf_cin = Tech.Composite.c_in p.buf in
  let buf_d = Tech.Composite.d_intrinsic p.buf in
  let prune cands =
    let kept =
      List.filter (fun c -> c.cap <= p.ceiling) cands
      |> quantise ~buckets:p.buckets ~ceiling:p.ceiling
      |> pareto
    in
    kept
  in
  let add_buffer_options ~loc cands =
    let buffered =
      List.filter_map
        (fun c ->
          if c.cap > p.ceiling then None
          else
            Some
              { cap = buf_cin;
                delay = c.delay +. buf_d +. (buf_r *. (buf_cout +. c.cap) *. k);
                places = Cat (Single loc, c.places) })
        cands
    in
    cands @ buffered
  in
  (* Process the wire above [id]: from the child end to the parent end,
     inserting candidate positions every [step] nm. *)
  let climb_wire id cands =
    let nd = Tree.node tree id in
    let wire = Tree.wire_of tree nd in
    let len = Tree.wire_len nd in
    let r = wire.Tech.Wire.res_per_nm and c = wire.Tech.Wire.cap_per_nm in
    let add_span cands span =
      if span = 0 then cands
      else begin
        let fl = float_of_int span in
        let wc = c *. fl and wr = r *. fl in
        List.map
          (fun cd ->
            { cd with
              cap = cd.cap +. wc;
              delay = cd.delay +. (wr *. ((wc /. 2.) +. cd.cap) *. k) })
          cands
      end
    in
    let geom = nd.Tree.geom_len in
    let position_ok at_elec =
      (* Map the electrical position to geometry and test legality. *)
      let at_geom = if len = 0 then 0 else at_elec * geom / len in
      not (p.forbidden (Tree.point_along_wire tree id (min geom at_geom)))
    in
    let rec walk cands travelled =
      (* [travelled] nm processed from the child end. Zero-length wires
         (coincident DME merge points, frequent at dense scale) must still
         offer a buffer position, or stacked merges could exceed any
         ceiling with nowhere to buffer. *)
      if travelled >= len then
        if len = 0 && position_ok 0 then
          prune (add_buffer_options ~loc:{ wire_id = id; at_elec = 0 } cands)
        else cands
      else begin
        let span = min p.step (len - travelled) in
        let cands = add_span cands span in
        let travelled = travelled + span in
        let at_elec = len - travelled in
        let cands =
          if position_ok at_elec then
            prune (add_buffer_options ~loc:{ wire_id = id; at_elec } cands)
          else begin
            (* Forbidden span (over an obstacle): no buffer may be added
               here. If the ceiling would empty the list, keep the
               lightest candidate — the span is unavoidably unbuffered and
               the accurate evaluation downstream will police the slew. *)
            match prune cands with
            | [] ->
              (match
                 List.sort (fun a b -> Float.compare a.cap b.cap) cands
               with
              | lightest :: _ -> [ lightest ]
              | [] -> [])
            | pruned -> pruned
          end
        in
        walk cands travelled
      end
    in
    walk cands 0
  in
  let rec solve id =
    incr solved;
    if !solved mod check_every = 0 then check ();
    let nd = Tree.node tree id in
    let base =
      match nd.Tree.kind with
      | Tree.Sink s ->
        if s.Tree.cap > p.ceiling then
          raise
            (Infeasible
               (Printf.sprintf "sink %d load %.1f fF exceeds ceiling %.1f" id
                  s.Tree.cap p.ceiling));
        [ { cap = s.Tree.cap; delay = 0.; places = Empty } ]
      | Tree.Internal | Tree.Source ->
        (match nd.Tree.children with
        | [] -> raise (Infeasible (Printf.sprintf "childless internal node %d" id))
        | first :: rest ->
          List.fold_left
            (fun acc child -> combine acc (solve_edge child))
            (solve_edge first) rest)
      | Tree.Buffer _ ->
        raise (Infeasible "tree already contains buffers")
    in
    prune base
  and solve_edge child =
    let cands = solve child in
    if cands = [] then
      raise (Infeasible (Printf.sprintf "no feasible candidates below node %d" child));
    climb_wire child cands
  in
  let root_cands = solve (Tree.root tree) in
  match pareto root_cands with
  | [] -> raise (Infeasible "no feasible solution at the root")
  | best :: _ ->
    (* Cap-sorted Pareto list: the head has least cap; the tail least
       delay. Pick least delay whose cap the source can drive. *)
    let chosen =
      List.fold_left
        (fun acc c -> if c.cap <= p.ceiling && c.delay < acc.delay then c else acc)
        best root_cands
    in
    flatten [] chosen.places

(* Apply a placement list to (a copy of) the tree. *)
let apply tree buf locs =
  let tree = Tree.copy tree in
  let by_wire = Hashtbl.create 64 in
  List.iter
    (fun l ->
      let cur = try Hashtbl.find by_wire l.wire_id with Not_found -> [] in
      Hashtbl.replace by_wire l.wire_id (l.at_elec :: cur))
    locs;
  Hashtbl.iter
    (fun wire_id ats ->
      (* Insert from the deepest (largest at) upwards; each insertion
         leaves the shallower span as the new target's parent wire. *)
      let ats = List.sort_uniq (fun a b -> Int.compare b a) ats in
      let nd = Tree.node tree wire_id in
      let elec = Tree.wire_len nd in
      let geom = nd.Tree.geom_len in
      let target = ref wire_id in
      List.iter
        (fun at_elec ->
          let at_geom =
            if elec = 0 then 0
            else
              min (Tree.node tree !target).Tree.geom_len
                (at_elec * geom / max 1 elec)
          in
          let id =
            Tree.insert_buffer_on_wire tree !target ~at:at_geom ~buf
          in
          target := id)
        ats)
    by_wire;
  tree

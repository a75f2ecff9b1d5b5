open Geometry

type t = Leaf of int | Node of t * t

let leaves topo =
  let rec go acc = function
    | Leaf i -> i :: acc
    | Node (a, b) -> go (go acc a) b
  in
  List.rev (go [] topo)

let rec depth = function
  | Leaf _ -> 0
  | Node (a, b) -> 1 + max (depth a) (depth b)

let rec size = function Leaf _ -> 1 | Node (a, b) -> size a + size b

type cluster = { topo : t; pos : Point.t }

(* Nearest-neighbour queries between two calls of [generate]'s
   [check]. *)
let check_every = 256

let generate ?(check = fun () -> ()) positions =
  let n = Array.length positions in
  if n = 0 then invalid_arg "Topology.generate: no sinks";
  if n = 1 then Leaf 0
  else begin
    (* Cluster ids are slots in a growing array; live ones are in the
       bucket index. *)
    let clusters = ref (Array.init n (fun i -> Some { topo = Leaf i; pos = positions.(i) })) in
    let bbox =
      Rect.bounding_box
        (Array.to_list (Array.map (fun p -> Rect.of_points p p) positions))
    in
    let span = max 1 (max (Rect.width bbox) (Rect.height bbox)) in
    let next_id = ref n in
    let live = ref n in
    (* The grid cell is sized for about one cluster per cell. Each round
       roughly halves the live clusters, so a grid kept from round one
       would leave later nearest-neighbour scans walking ever more empty
       cells; it is rebuilt once the live count falls below a quarter of
       the count it was sized for. [Bucket.nearest] is exact with an id
       tie-break, so the cell size never changes the topology. *)
    let grid_for count =
      let cell = max 1 (span / max 1 (int_of_float (sqrt (float_of_int count)))) in
      Bucket.create ~cell
    in
    let sized_for = ref n in
    let bucket = ref (grid_for n) in
    Array.iteri (fun i p -> Bucket.add !bucket i p) positions;
    let regrid () =
      let fresh = grid_for !live in
      Bucket.iter !bucket (fun id p -> Bucket.add fresh id p);
      bucket := fresh;
      sized_for := !live
    in
    let get i = match !clusters.(i) with Some c -> c | None -> assert false in
    let add_cluster c =
      let id = !next_id in
      incr next_id;
      if id >= Array.length !clusters then begin
        let bigger = Array.make (2 * id) None in
        Array.blit !clusters 0 bigger 0 (Array.length !clusters);
        clusters := bigger
      end;
      !clusters.(id) <- Some c;
      Bucket.add !bucket id c.pos;
      id
    in
    while !live > 1 do
      if 4 * !live < !sized_for then regrid ();
      (* Candidate pair per live cluster: its nearest other live cluster. *)
      let candidates = ref [] in
      let queries = ref 0 in
      Bucket.iter !bucket (fun id p ->
          incr queries;
          if !queries mod check_every = 0 then check ();
          match Bucket.nearest !bucket ~exclude:(fun j -> j = id) p with
          | Some (j, q) ->
            let a, b = if id < j then (id, j) else (j, id) in
            candidates := (Point.dist p q, a, b) :: !candidates
          | None -> ());
      let candidates =
        List.sort_uniq
          (fun (d1, a1, b1) (d2, a2, b2) ->
            if d1 <> d2 then Int.compare d1 d2
            else if a1 <> a2 then Int.compare a1 a2
            else Int.compare b1 b2)
          !candidates
      in
      let matched = Hashtbl.create 16 in
      List.iter
        (fun (_, a, b) ->
          if (not (Hashtbl.mem matched a)) && not (Hashtbl.mem matched b) then begin
            Hashtbl.replace matched a ();
            Hashtbl.replace matched b ();
            let ca = get a and cb = get b in
            Bucket.remove !bucket a;
            Bucket.remove !bucket b;
            !clusters.(a) <- None;
            !clusters.(b) <- None;
            let merged =
              { topo = Node (ca.topo, cb.topo);
                pos = Point.midpoint ca.pos cb.pos }
            in
            ignore (add_cluster merged);
            decr live
          end)
        candidates
    done;
    let result = ref None in
    Bucket.iter !bucket (fun id _ -> result := Some (get id).topo);
    match !result with Some t -> t | None -> assert false
  end

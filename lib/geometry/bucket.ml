type t = {
  cell : int;
  cells : (int * int, (int, Point.t) Hashtbl.t) Hashtbl.t;
  ids : (int, Point.t) Hashtbl.t;
}

let create ~cell =
  if cell <= 0 then invalid_arg "Bucket.create: cell must be positive";
  { cell; cells = Hashtbl.create 256; ids = Hashtbl.create 256 }

let key t (p : Point.t) =
  let q v = if v >= 0 then v / t.cell else ((v + 1) / t.cell) - 1 in
  (q p.x, q p.y)

let add t id p =
  if Hashtbl.mem t.ids id then
    invalid_arg (Printf.sprintf "Bucket.add: duplicate id %d" id);
  Hashtbl.replace t.ids id p;
  let k = key t p in
  let bucket =
    match Hashtbl.find_opt t.cells k with
    | Some b -> b
    | None ->
      let b = Hashtbl.create 4 in
      Hashtbl.replace t.cells k b;
      b
  in
  Hashtbl.replace bucket id p

let remove t id =
  match Hashtbl.find_opt t.ids id with
  | None -> ()
  | Some p ->
    Hashtbl.remove t.ids id;
    (match Hashtbl.find_opt t.cells (key t p) with
    | Some bucket -> Hashtbl.remove bucket id
    | None -> ())

let mem t id = Hashtbl.mem t.ids id
let size t = Hashtbl.length t.ids
let position t id = Hashtbl.find_opt t.ids id
let iter t f = Hashtbl.iter (fun id p -> f id p) t.ids

let nearest t ?(exclude = fun _ -> false) p =
  if Hashtbl.length t.ids = 0 then None
  else begin
    let cx, cy = key t p in
    let best = ref None in
    let consider id q =
      if not (exclude id) then begin
        let d = Point.dist p q in
        match !best with
        | Some (bd, bid, _) when d > bd || (d = bd && id >= bid) -> ()
        | _ -> best := Some (d, id, q)
      end
    in
    let scan_ring r =
      (* Visit cells at Chebyshev ring distance exactly r around (cx,cy). *)
      if r = 0 then begin
        match Hashtbl.find_opt t.cells (cx, cy) with
        | Some b -> Hashtbl.iter consider b
        | None -> ()
      end
      else
        for dx = -r to r do
          let columns = if abs dx = r then List.init ((2 * r) + 1) (fun i -> i - r) else [ -r; r ] in
          List.iter
            (fun dy ->
              match Hashtbl.find_opt t.cells (cx + dx, cy + dy) with
              | Some b -> Hashtbl.iter consider b
              | None -> ())
            columns
        done
    in
    (* Expanding ring search. A point in a cell at Chebyshev ring r is at
       Manhattan distance at least (r-1)*cell+1 from p, so once the best
       found distance is below that bound no farther ring can win. *)
    let r = ref 0 in
    let continue = ref true in
    while !continue do
      scan_ring !r;
      (match !best with
      | Some (bd, _, _) when bd <= !r * t.cell -> continue := false
      | _ -> ());
      (* Safety stop for far or sparse queries: past this many rings a
         direct scan of every member is cheaper than more rings, and it
         is exact where the ring bound has not yet proved [best]. *)
      if !continue && !r > 4 + (Hashtbl.length t.cells * 2) then begin
        Hashtbl.iter consider t.ids;
        continue := false
      end;
      incr r
    done;
    match !best with Some (_, id, q) -> Some (id, q) | None -> None
  end

open Geometry

type sink = { cap : float; parity : int; label : string }

type kind =
  | Source
  | Internal
  | Buffer of Tech.Composite.t
  | Sink of sink

type node = {
  id : int;
  mutable kind : kind;
  mutable pos : Point.t;
  mutable parent : int;
  mutable children : int list;
  mutable wire_class : int;
  mutable geom_len : int;
  mutable snake : int;
  mutable bend : Segment.L.config;
  mutable route : Point.t list;
}

type t = {
  tech : Tech.t;
  mutable nodes : node array;
  mutable n : int;
  mutable revision : int;
  mutable journal : journal option;
}

(* Undo log for speculative edits: one [jrecord] per [touch] site captures
   the old values of every field that site mutates. Rolling back replays
   the undo entries newest-first — O(edit), never a full-tree copy. At
   close time (rollback or commit) a redo log of the final values is
   captured so the same edit can be replayed onto content-identical
   replicas of the base tree. *)
and journal = {
  j_tree : t;
  j_base_rev : int;
  j_base_n : int;
  mutable j_undo : entry list; (* newest first *)
  mutable j_ops : int; (* recorded touch sites *)
  mutable j_value_only : bool; (* no structural edit recorded *)
  mutable j_touched : int list;
  mutable j_sorted : int list option; (* [touched] memo, reset by [jrecord] *)
  mutable j_redo : entry list; (* captured at rollback/commit *)
  mutable j_closed : bool;
}

and entry =
  | E_kind of int * kind
  | E_parent of int * int
  | E_children of int * int list
  | E_wire_class of int * int
  | E_geom_len of int * int
  | E_snake of int * int
  | E_route of int * Point.t list
  | E_n of int
  | E_nodes of node array (* redo only: copies of appended nodes *)

let dummy_node =
  { id = -1; kind = Internal; pos = Point.origin; parent = -1; children = [];
    wire_class = 0; geom_len = 0; snake = 0; bend = Segment.L.XY; route = [] }

let create ~tech ~source_pos =
  let root =
    { dummy_node with id = 0; kind = Source; pos = source_pos }
  in
  let nodes = Array.make 64 dummy_node in
  nodes.(0) <- root;
  { tech; nodes; n = 1; revision = 0; journal = None }

let tech t = t.tech
let root _ = 0
let size t = t.n
let revision t = t.revision
let touch t = t.revision <- t.revision + 1

(* Record one mutation site in the active journal (no-op without one).
   Must be called exactly once per [touch] so the consistency invariant
   [revision = base_rev + ops] detects out-of-band mutations. *)
let jrecord t ?(structural = false) ~touched entries =
  match t.journal with
  | None -> ()
  | Some j ->
    j.j_undo <- List.rev_append entries j.j_undo;
    j.j_ops <- j.j_ops + 1;
    if structural then j.j_value_only <- false;
    j.j_touched <- List.rev_append touched j.j_touched;
    j.j_sorted <- None

let node t i =
  if i < 0 || i >= t.n then invalid_arg (Printf.sprintf "Tree.node: id %d" i);
  t.nodes.(i)

let wire_len nd = nd.geom_len + nd.snake
let wire_of t nd = t.tech.Tech.wires.(nd.wire_class)
let wire_cap t nd = Tech.Wire.cap (wire_of t nd) (wire_len nd)

let polyline_length pts =
  match pts with
  | [] | [ _ ] -> 0
  | first :: _ ->
    snd
      (List.fold_left
         (fun (prev, acc) p -> (p, acc + Point.dist prev p))
         (first, 0) pts)

let grow t =
  if t.n = Array.length t.nodes then begin
    let bigger = Array.make (2 * t.n) dummy_node in
    Array.blit t.nodes 0 bigger 0 t.n;
    t.nodes <- bigger
  end

let add_node t ~kind ~pos ~parent ?wire_class ?geom_len
    ?(bend = Segment.L.XY) () =
  if parent < 0 || parent >= t.n then
    invalid_arg (Printf.sprintf "Tree.add_node: invalid parent %d" parent);
  (match kind with
  | Source -> invalid_arg "Tree.add_node: only one source allowed"
  | Internal | Buffer _ | Sink _ -> ());
  grow t;
  let id = t.n in
  let wire_class =
    match wire_class with Some w -> w | None -> Tech.widest_wire t.tech
  in
  let geom_len =
    match geom_len with
    | Some l ->
      if l < Point.dist t.nodes.(parent).pos pos then
        invalid_arg "Tree.add_node: geom_len shorter than Manhattan distance";
      l
    | None -> Point.dist t.nodes.(parent).pos pos
  in
  let nd =
    { id; kind; pos; parent; children = []; wire_class; geom_len; snake = 0;
      bend; route = [] }
  in
  jrecord t ~structural:true ~touched:[ parent ]
    [ E_n t.n; E_children (parent, t.nodes.(parent).children) ];
  t.nodes.(id) <- nd;
  t.n <- t.n + 1;
  t.nodes.(parent).children <- t.nodes.(parent).children @ [ id ];
  touch t;
  id

let set_route t id pts =
  let nd = node t id in
  if nd.parent < 0 then invalid_arg "Tree.set_route: root has no wire";
  (match pts with
  | first :: _ :: _ ->
    let last = Listx.last ~what:"Tree.set_route: polyline" pts in
    if not (Point.equal first (node t nd.parent).pos && Point.equal last nd.pos)
    then invalid_arg "Tree.set_route: endpoints do not match parent/node"
  | _ -> invalid_arg "Tree.set_route: polyline needs at least two points");
  jrecord t ~touched:[ id ]
    [ E_route (id, nd.route); E_geom_len (id, nd.geom_len) ];
  nd.route <- pts;
  nd.geom_len <- polyline_length pts;
  touch t

(* Walk a polyline to the point at arc distance [d]. *)
let point_on_polyline pts d =
  let rec walk prev remaining = function
    | [] -> prev
    | p :: rest ->
      let step = Point.dist prev p in
      if remaining <= step then begin
        if step = 0 then p
        else
          let f a b = a + ((b - a) * remaining / step) in
          Point.make (f prev.Point.x p.Point.x) (f prev.Point.y p.Point.y)
      end
      else walk p (remaining - step) rest
  in
  match pts with
  | [] -> invalid_arg "point_on_polyline: empty"
  | first :: rest -> walk first d rest

let wire_polyline t id =
  let nd = node t id in
  if nd.parent < 0 then invalid_arg "Tree.wire_polyline: root";
  if nd.route <> [] then nd.route
  else
    let p = (node t nd.parent).pos in
    let b = Segment.L.bend nd.bend p nd.pos in
    if Point.equal b p || Point.equal b nd.pos then [ p; nd.pos ]
    else [ p; b; nd.pos ]

let point_along_wire t id d =
  let nd = node t id in
  if d < 0 || d > nd.geom_len then
    invalid_arg
      (Printf.sprintf "Tree.point_along_wire: %d outside [0,%d]" d nd.geom_len);
  point_on_polyline (wire_polyline t id) d

(* Split an explicit polyline at arc distance [d]; returns the two halves,
   both including the split point. *)
let split_polyline pts d =
  let split = point_on_polyline pts d in
  let rec walk prev remaining acc = function
    | [] -> (List.rev (split :: acc), [ split ])
    | p :: rest ->
      let step = Point.dist prev p in
      if remaining <= step then
        (List.rev (split :: acc), split :: p :: rest)
      else walk p (remaining - step) (p :: acc) rest
  in
  match pts with
  | [] -> invalid_arg "split_polyline: empty"
  | first :: rest ->
    let before, after = walk first d [ first ] rest in
    (* Drop duplicated points introduced when the split lands on a vertex. *)
    let dedup l =
      let rec go = function
        | a :: b :: rest when Point.equal a b -> go (b :: rest)
        | a :: rest -> a :: go rest
        | [] -> []
      in
      go l
    in
    (dedup before, dedup after)

let split_wire t id ~at =
  let nd = node t id in
  if nd.parent < 0 then invalid_arg "Tree.split_wire: root has no wire";
  if at < 0 || at > nd.geom_len then
    invalid_arg
      (Printf.sprintf "Tree.split_wire: %d outside [0,%d]" at nd.geom_len);
  let pts = wire_polyline t id in
  let before, after = split_polyline pts at in
  let split_pos = point_on_polyline pts at in
  let parent = nd.parent in
  (* Proportional snake split (integers; remainder goes downstream). *)
  let snake_up = if nd.geom_len = 0 then 0 else nd.snake * at / nd.geom_len in
  let snake_down = nd.snake - snake_up in
  grow t;
  let mid_id = t.n in
  let mid =
    { id = mid_id; kind = Internal; pos = split_pos; parent;
      children = [ id ]; wire_class = nd.wire_class;
      geom_len = polyline_length before; snake = snake_up; bend = nd.bend;
      route = (if List.length before > 2 then before else []) }
  in
  jrecord t ~structural:true ~touched:[ id; parent ]
    [ E_n t.n;
      E_children (parent, t.nodes.(parent).children);
      E_parent (id, nd.parent);
      E_geom_len (id, nd.geom_len);
      E_snake (id, nd.snake);
      E_route (id, nd.route) ];
  t.nodes.(mid_id) <- mid;
  t.n <- t.n + 1;
  (* Rewire: parent loses [id], gains [mid]. *)
  let pn = t.nodes.(parent) in
  pn.children <-
    List.map (fun c -> if c = id then mid_id else c) pn.children;
  nd.parent <- mid_id;
  nd.geom_len <- polyline_length after;
  nd.snake <- snake_down;
  nd.route <- (if List.length after > 2 then after else []);
  (* A two-point remainder is straight or an L with the original bend; keep
     the bend only if the segment is not axis-aligned. *)
  if List.length after <= 2 then nd.bend <- nd.bend;
  touch t;
  mid_id

let insert_buffer_on_wire t id ~at ~buf =
  let mid = split_wire t id ~at in
  let nd = node t mid in
  jrecord t ~structural:true ~touched:[ mid ] [ E_kind (mid, nd.kind) ];
  nd.kind <- Buffer buf;
  touch t;
  mid

let remove_buffer t id =
  let nd = node t id in
  match nd.kind with
  | Buffer _ ->
    jrecord t ~structural:true ~touched:[ id ] [ E_kind (id, nd.kind) ];
    nd.kind <- Internal;
    touch t
  | Source | Internal | Sink _ -> invalid_arg "Tree.remove_buffer: not a buffer"

let set_buffer t id buf =
  let nd = node t id in
  match nd.kind with
  | Internal | Buffer _ ->
    (* Rescaling an existing buffer keeps the stage partitioning (a value
       edit); turning an internal node into a buffer splits a stage. *)
    let structural = match nd.kind with Internal -> true | _ -> false in
    jrecord t ~structural ~touched:[ id ] [ E_kind (id, nd.kind) ];
    nd.kind <- Buffer buf;
    touch t
  | Source | Sink _ -> invalid_arg "Tree.set_buffer: source/sink node"

let set_wire_class t id wc =
  let nd = node t id in
  jrecord t ~touched:[ id ] [ E_wire_class (id, nd.wire_class) ];
  nd.wire_class <- wc;
  touch t

let set_snake t id snake =
  let nd = node t id in
  jrecord t ~touched:[ id ] [ E_snake (id, nd.snake) ];
  nd.snake <- snake;
  touch t

let set_geom_len t id len =
  let nd = node t id in
  jrecord t ~touched:[ id ] [ E_geom_len (id, nd.geom_len) ];
  nd.geom_len <- len;
  touch t

let collect t pred =
  let acc = ref [] in
  for i = t.n - 1 downto 0 do
    if pred t.nodes.(i) then acc := i :: !acc
  done;
  Array.of_list !acc

let sinks t = collect t (fun nd -> match nd.kind with Sink _ -> true | _ -> false)

let buffer_ids t =
  collect t (fun nd -> match nd.kind with Buffer _ -> true | _ -> false)

(* Reachable nodes only: after [detach], unreachable nodes are skipped by
   every traversal until [compact] rebuilds dense ids. *)
let topo_order t =
  let order = Array.make t.n 0 in
  let idx = ref 0 in
  let rec visit i =
    order.(!idx) <- i;
    incr idx;
    List.iter visit t.nodes.(i).children
  in
  visit 0;
  Array.sub order 0 !idx

let post_order t =
  let order = topo_order t in
  let n = Array.length order in
  Array.init n (fun i -> order.(n - 1 - i))

let iter t f =
  let order = topo_order t in
  Array.iter (fun i -> f t.nodes.(i)) order

let detach t id =
  let nd = node t id in
  if nd.parent < 0 then invalid_arg "Tree.detach: cannot detach the root";
  let pn = t.nodes.(nd.parent) in
  jrecord t ~structural:true ~touched:[ id; nd.parent ]
    [ E_children (nd.parent, pn.children); E_parent (id, nd.parent) ];
  pn.children <- List.filter (fun c -> c <> id) pn.children;
  nd.parent <- -1;
  touch t

let reparent t id ~new_parent =
  let nd = node t id in
  let np = node t new_parent in
  if nd.parent >= 0 then detach t id;
  jrecord t ~structural:true ~touched:[ id; new_parent ]
    [ E_parent (id, nd.parent);
      E_children (new_parent, np.children);
      E_route (id, nd.route);
      E_snake (id, nd.snake);
      E_geom_len (id, nd.geom_len) ];
  nd.parent <- new_parent;
  np.children <- np.children @ [ id ];
  nd.route <- [];
  nd.snake <- 0;
  nd.geom_len <- Point.dist np.pos nd.pos;
  touch t

let compact t =
  let order = topo_order t in
  let remap = Array.make t.n (-1) in
  Array.iteri (fun new_id old_id -> remap.(old_id) <- new_id) order;
  let nodes =
    Array.map
      (fun old_id ->
        let nd = t.nodes.(old_id) in
        {
          nd with
          id = remap.(old_id);
          parent = (if nd.parent < 0 then -1 else remap.(nd.parent));
          children = List.map (fun c -> remap.(c)) nd.children;
        })
      order
  in
  ( { tech = t.tech; nodes; n = Array.length nodes; revision = t.revision;
      journal = None },
    remap )

let inversions t =
  let inv = Array.make t.n 0 in
  let order = topo_order t in
  Array.iter
    (fun i ->
      let nd = t.nodes.(i) in
      let self = match nd.kind with Buffer b when Tech.Composite.inverting b -> 1 | _ -> 0 in
      inv.(i) <- (if nd.parent < 0 then 0 else inv.(nd.parent)) + self)
    order;
  inv

let subtree_sinks t id =
  let acc = ref [] in
  let rec visit i =
    let nd = t.nodes.(i) in
    (match nd.kind with Sink _ -> acc := i :: !acc | _ -> ());
    List.iter visit nd.children
  in
  visit id;
  List.rev !acc

let copy_node nd = { nd with children = nd.children }

(* Deep copies are banned from the IVC attempt hot path (journal rollback
   replaced them); the counter lets tests assert no copy slipped back in. *)
let copy_counter = Atomic.make 0
let copies () = Atomic.get copy_counter

let copy t =
  Atomic.incr copy_counter;
  let nodes = Array.map copy_node (Array.sub t.nodes 0 t.n) in
  let padded =
    if Array.length nodes = 0 then [| dummy_node |] else nodes
  in
  { tech = t.tech; nodes = padded; n = t.n; revision = t.revision;
    journal = None }

let assign ~dst ~src =
  if dst.journal <> None then
    invalid_arg "Tree.assign: destination has an active journal";
  dst.nodes <- Array.map copy_node (Array.sub src.nodes 0 src.n);
  dst.n <- src.n;
  touch dst

(* Abutment graft for the regional flow: [src]'s whole tree (minus its
   source) is appended onto [t], with [src]'s source node identified with
   the childless node [at] — which becomes a [Buffer buf], the regional
   root driver. Ids are assigned in [src] topological order, so the graft
   is deterministic; the returned map translates reachable [src] ids
   (map.(0) = [at], unreachable ids = -1). One [touch], no journal. *)
let graft t ~at ~buf ~src =
  if t.journal <> None then invalid_arg "Tree.graft: active journal";
  if src.journal <> None then invalid_arg "Tree.graft: source has a journal";
  if not (t.tech == src.tech) then
    invalid_arg "Tree.graft: technology mismatch";
  let tap = node t at in
  (match tap.kind with
  | Source -> invalid_arg "Tree.graft: cannot graft onto the source"
  | Internal | Buffer _ | Sink _ -> ());
  if tap.children <> [] then invalid_arg "Tree.graft: tap has children";
  let src_root = src.nodes.(0) in
  if not (Point.equal tap.pos src_root.pos) then
    invalid_arg "Tree.graft: tap and source positions differ";
  let order = topo_order src in
  let map = Array.make src.n (-1) in
  map.(0) <- at;
  (* First assign every id, then materialise the nodes: children lists
     reference ids that topological order has not visited yet. *)
  let next = ref t.n in
  Array.iter
    (fun i ->
      if i <> 0 then begin
        map.(i) <- !next;
        incr next
      end)
    order;
  Array.iter
    (fun i ->
      if i <> 0 then begin
        let sn = src.nodes.(i) in
        grow t;
        t.nodes.(t.n) <-
          { sn with
            id = map.(i);
            parent = map.(sn.parent);
            children = List.map (fun c -> map.(c)) sn.children };
        t.n <- t.n + 1
      end)
    order;
  tap.kind <- Buffer buf;
  tap.children <- List.map (fun c -> map.(c)) src_root.children;
  touch t;
  map

(* 64-bit FNV-1a over the full structural content (ids, topology, kinds,
   geometry, embeddings). Two trees with equal digests are — up to hash
   collision — identical inputs to every downstream analysis; the
   determinism tests compare parallel and serial speculation runs with it. *)
let digest t =
  let open Int64 in
  let prime = 0x100000001b3L in
  let h = ref 0xcbf29ce484222325L in
  let mix x = h := mul (logxor !h x) prime in
  let mix_int i = mix (of_int i) in
  let mix_float f = mix (bits_of_float f) in
  let mix_point p =
    mix_int p.Point.x;
    mix_int p.Point.y
  in
  mix_int t.n;
  for i = 0 to t.n - 1 do
    let nd = t.nodes.(i) in
    (match nd.kind with
    | Source -> mix_int 1
    | Internal -> mix_int 2
    | Buffer b ->
      mix_int 3;
      mix_int b.Tech.Composite.count;
      mix_float (Tech.Composite.c_in b);
      mix_float (Tech.Composite.r_out b)
    | Sink s ->
      mix_int 4;
      mix_float s.cap;
      mix_int s.parity);
    mix_point nd.pos;
    mix_int nd.parent;
    List.iter mix_int nd.children;
    mix_int (-1);
    mix_int nd.wire_class;
    mix_int nd.geom_len;
    mix_int nd.snake;
    mix_int (match nd.bend with Segment.L.XY -> 0 | Segment.L.YX -> 1);
    List.iter mix_point nd.route;
    mix_int (-2)
  done;
  !h

(* ------------------------------------------------------------------ *)
(* Canonical text serialization.

   Line-oriented and order-canonical: node lines in id order, then the
   non-empty children lists (children ORDER matters — [digest] hashes it),
   then the explicit route polylines. Floats are emitted as hex literals
   ([%h]) so a round-trip is bit-exact; labels and device names are
   percent-escaped so the format stays strictly space-separated. The
   technology is shared, never serialized (like [copy]): [of_string]
   takes the tech and resolves buffer devices by name against its
   library, falling back to reconstructing the device from the recorded
   electricals when the library changed underneath the snapshot. *)

let escape_token s =
  if s = "" then "%empty%"
  else begin
    let buf = Buffer.create (String.length s) in
    String.iter
      (fun c ->
        match c with
        | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '.' | '_' | '-' | '~' ->
          Buffer.add_char buf c
        | c -> Buffer.add_string buf (Printf.sprintf "%%%02X" (Char.code c)))
      s;
    Buffer.contents buf
  end

exception Parse_error of string

let parse_fail fmt = Printf.ksprintf (fun m -> raise (Parse_error m)) fmt

let unescape_token s =
  if s = "%empty%" then ""
  else begin
    let buf = Buffer.create (String.length s) in
    let n = String.length s in
    let i = ref 0 in
    while !i < n do
      if s.[!i] = '%' then begin
        if !i + 2 >= n then parse_fail "truncated escape in %S" s;
        (match int_of_string_opt ("0x" ^ String.sub s (!i + 1) 2) with
        | Some code when code >= 0 && code < 256 ->
          Buffer.add_char buf (Char.chr code)
        | _ -> parse_fail "bad escape in %S" s);
        i := !i + 3
      end
      else begin
        Buffer.add_char buf s.[!i];
        incr i
      end
    done;
    Buffer.contents buf
  end

let composite_to_tokens (b : Tech.Composite.t) =
  let d = b.Tech.Composite.base in
  Printf.sprintf "%d %s %h %h %h %h %h %h %d" b.Tech.Composite.count
    (escape_token d.Tech.Device.name)
    d.Tech.Device.c_in d.Tech.Device.c_out d.Tech.Device.r_up
    d.Tech.Device.r_down d.Tech.Device.d_intrinsic d.Tech.Device.slew_coeff
    (if d.Tech.Device.inverting then 1 else 0)

let int_token s =
  match int_of_string_opt s with
  | Some v -> v
  | None -> parse_fail "not an integer: %S" s

let float_token s =
  match float_of_string_opt s with
  | Some v -> v
  | None -> parse_fail "not a number: %S" s

let composite_of_tokens_exn ~tech = function
  | [ count; name; cin; cout; rup; rdown; dint; slew; inv ] ->
    let count = int_token count in
    if count < 1 then parse_fail "buffer count %d < 1" count;
    let inverting =
      match inv with
      | "1" -> true
      | "0" -> false
      | s -> parse_fail "bad inverting flag %S" s
    in
    let name = unescape_token name in
    let c_in = float_token cin and c_out = float_token cout in
    let r_up = float_token rup and r_down = float_token rdown in
    let d_intrinsic = float_token dint and slew_coeff = float_token slew in
    if
      Float.is_nan c_in || Float.is_nan c_out || Float.is_nan r_up
      || Float.is_nan r_down || Float.is_nan d_intrinsic
      || Float.is_nan slew_coeff
    then parse_fail "non-finite device electricals for %S" name;
    let matches (d : Tech.Device.t) =
      d.Tech.Device.name = name
      && d.Tech.Device.c_in = c_in
      && d.Tech.Device.c_out = c_out
      && d.Tech.Device.r_up = r_up
      && d.Tech.Device.r_down = r_down
      && d.Tech.Device.d_intrinsic = d_intrinsic
      && d.Tech.Device.slew_coeff = slew_coeff
      && d.Tech.Device.inverting = inverting
    in
    let dev =
      match List.find_opt matches tech.Tech.devices with
      | Some d -> d
      | None -> (
        try
          Tech.Device.make ~name ~c_in ~c_out ~r_up ~r_down ~d_intrinsic
            ~slew_coeff ~inverting ()
        with Invalid_argument m -> parse_fail "%s" m)
    in
    Tech.Composite.make dev count
  | _ -> parse_fail "malformed buffer"

let composite_of_tokens ~tech tokens =
  try Ok (composite_of_tokens_exn ~tech tokens) with Parse_error m -> Error m

let bend_token = function Segment.L.XY -> "XY" | Segment.L.YX -> "YX"

let to_string t =
  let buf = Buffer.create (128 * t.n) in
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pf "ctree 1\n";
  pf "n %d\n" t.n;
  for i = 0 to t.n - 1 do
    let nd = t.nodes.(i) in
    pf "node %d %d %d %d %d %d %d %s" i nd.pos.Point.x nd.pos.Point.y
      nd.parent nd.wire_class nd.geom_len nd.snake (bend_token nd.bend);
    match nd.kind with
    | Source -> pf " S\n"
    | Internal -> pf " I\n"
    | Buffer b -> pf " B %s\n" (composite_to_tokens b)
    | Sink s -> pf " K %d %h %s\n" s.parity s.cap (escape_token s.label)
  done;
  for i = 0 to t.n - 1 do
    let nd = t.nodes.(i) in
    if nd.children <> [] then begin
      pf "children %d" i;
      List.iter (fun c -> pf " %d" c) nd.children;
      pf "\n"
    end
  done;
  for i = 0 to t.n - 1 do
    let nd = t.nodes.(i) in
    if nd.route <> [] then begin
      pf "route %d" i;
      List.iter (fun p -> pf " %d %d" p.Point.x p.Point.y) nd.route;
      pf "\n"
    end
  done;
  Buffer.contents buf

let of_string ~tech text =
  let failf lineno fmt =
    Printf.ksprintf
      (fun m -> raise (Parse_error (Printf.sprintf "line %d: %s" lineno m)))
      fmt
  in
  (* Re-raise a token decoder's failure with the line number. *)
  let at lineno f x = try f x with Parse_error m -> failf lineno "%s" m in
  let int_ lineno = at lineno int_token in
  let float_ lineno = at lineno float_token in
  try
    let header = ref false in
    let n = ref (-1) in
    let nodes = ref [||] in
    let get_slot lineno id =
      if !n < 0 then failf lineno "directive before the n line";
      if id < 0 || id >= !n then failf lineno "node id %d out of range" id;
      id
    in
    let defined lineno id =
      match !nodes.(get_slot lineno id) with
      | Some nd -> nd
      | None -> failf lineno "node %d not defined yet" id
    in
    List.iteri
      (fun idx line ->
        let lineno = idx + 1 in
        let line =
          let l = String.length line in
          if l > 0 && line.[l - 1] = '\r' then String.sub line 0 (l - 1)
          else line
        in
        let tokens =
          String.split_on_char ' ' line |> List.filter (fun s -> s <> "")
        in
        match tokens with
        | [] -> ()
        | "ctree" :: rest ->
          if !header then failf lineno "duplicate header";
          (match rest with
          | [ "1" ] -> header := true
          | _ -> failf lineno "unsupported ctree version")
        | [ "n"; c ] ->
          if not !header then failf lineno "n before the ctree header";
          if !n >= 0 then failf lineno "duplicate n line";
          let c = int_ lineno c in
          if c < 1 then failf lineno "node count %d < 1" c;
          n := c;
          nodes := Array.make c None
        | "node" :: id :: x :: y :: parent :: wc :: geom :: snake :: bend
          :: kind ->
          let id = get_slot lineno (int_ lineno id) in
          if !nodes.(id) <> None then failf lineno "duplicate node %d" id;
          let bend =
            match bend with
            | "XY" -> Segment.L.XY
            | "YX" -> Segment.L.YX
            | b -> failf lineno "unknown bend %S" b
          in
          let kind =
            match kind with
            | [ "S" ] -> Source
            | [ "I" ] -> Internal
            | "B" :: b -> Buffer (at lineno (composite_of_tokens_exn ~tech) b)
            | [ "K"; parity; cap; label ] ->
              Sink
                { cap = float_ lineno cap; parity = int_ lineno parity;
                  label = at lineno unescape_token label }
            | _ -> failf lineno "malformed node kind"
          in
          !nodes.(id) <-
            Some
              { id; kind; pos = Point.make (int_ lineno x) (int_ lineno y);
                parent = int_ lineno parent;
                children = []; wire_class = int_ lineno wc;
                geom_len = int_ lineno geom; snake = int_ lineno snake;
                bend; route = [] }
        | "children" :: id :: (_ :: _ as rest) ->
          let nd = defined lineno (int_ lineno id) in
          if nd.children <> [] then
            failf lineno "duplicate children line for node %d" nd.id;
          nd.children <- List.map (fun c -> int_ lineno c) rest
        | "route" :: id :: (_ :: _ as coords) ->
          let nd = defined lineno (int_ lineno id) in
          if nd.route <> [] then
            failf lineno "duplicate route line for node %d" nd.id;
          let rec pairs = function
            | [] -> []
            | [ _ ] -> failf lineno "odd coordinate count in route"
            | x :: y :: rest ->
              Point.make (int_ lineno x) (int_ lineno y) :: pairs rest
          in
          let pts = pairs coords in
          if List.length pts < 2 then
            failf lineno "route needs at least two points";
          nd.route <- pts
        | d :: _ -> failf lineno "unknown directive %S" d)
      (String.split_on_char '\n' text);
    if not !header then raise (Parse_error "missing ctree header");
    if !n < 0 then raise (Parse_error "missing n line");
    let arr =
      Array.mapi
        (fun i nd ->
          match nd with
          | Some nd -> nd
          | None -> raise (Parse_error (Printf.sprintf "node %d missing" i)))
        !nodes
    in
    let count = !n in
    Array.iteri
      (fun i nd ->
        (match nd.kind with
        | Source ->
          if i <> 0 then parse_fail "source at non-root node %d" i;
          if nd.parent <> -1 then parse_fail "root node has parent %d" nd.parent
        | Internal | Buffer _ | Sink _ ->
          if i = 0 then parse_fail "root node is not the source");
        if nd.parent < -1 || nd.parent >= count then
          parse_fail "node %d has out-of-range parent %d" i nd.parent;
        if nd.parent = i then parse_fail "node %d is its own parent" i;
        if nd.wire_class < 0
           || nd.wire_class >= Array.length tech.Tech.wires
        then parse_fail "node %d has invalid wire class %d" i nd.wire_class;
        List.iter
          (fun c ->
            if c < 0 || c >= count then
              parse_fail "node %d has out-of-range child %d" i c
            else if arr.(c).parent <> i then
              parse_fail "child %d of node %d has parent %d" c i arr.(c).parent)
          nd.children)
      arr;
    Array.iteri
      (fun i nd ->
        if nd.parent >= 0 then begin
          let occurrences =
            List.fold_left
              (fun acc c -> if c = i then acc + 1 else acc)
              0
              arr.(nd.parent).children
          in
          if occurrences <> 1 then
            parse_fail
              "node %d appears %d times in the children of its parent %d" i
              occurrences nd.parent
        end)
      arr;
    Ok { tech; nodes = arr; n = count; revision = 0; journal = None }
  with Parse_error m -> Error m

module Journal = struct
  let start tree =
    (match tree.journal with
    | Some _ -> invalid_arg "Tree.Journal.start: a journal is already active"
    | None -> ());
    let j =
      { j_tree = tree; j_base_rev = tree.revision; j_base_n = tree.n;
        j_undo = []; j_ops = 0; j_value_only = true; j_touched = [];
        j_sorted = None; j_redo = []; j_closed = false }
    in
    tree.journal <- Some j;
    j

  let base_revision j = j.j_base_rev
  let ops j = j.j_ops
  let value_only j = j.j_value_only
  let touched j =
    match j.j_sorted with
    | Some l -> l
    | None ->
      let l = List.sort_uniq Int.compare j.j_touched in
      j.j_sorted <- Some l;
      l

  (* Every mutation since [start] went through a journaled mutator: each
     one bumped [revision] exactly once and recorded exactly one op.
     Direct field writes or bare [touch] calls break the equality — such
     a journal must not be rolled back (the undo log is incomplete) and
     its touched set must not be trusted as a dirty hint. *)
  let consistent j = j.j_tree.revision = j.j_base_rev + j.j_ops

  let apply_undo t = function
    | E_kind (i, k) -> t.nodes.(i).kind <- k
    | E_parent (i, p) -> t.nodes.(i).parent <- p
    | E_children (i, c) -> t.nodes.(i).children <- c
    | E_wire_class (i, w) -> t.nodes.(i).wire_class <- w
    | E_geom_len (i, l) -> t.nodes.(i).geom_len <- l
    | E_snake (i, s) -> t.nodes.(i).snake <- s
    | E_route (i, r) -> t.nodes.(i).route <- r
    | E_n n -> t.n <- n
    | E_nodes _ -> ()

  (* [e]'s (node, field) at its value on [t] now. *)
  let current t = function
    | E_kind (i, _) -> E_kind (i, t.nodes.(i).kind)
    | E_parent (i, _) -> E_parent (i, t.nodes.(i).parent)
    | E_children (i, _) -> E_children (i, t.nodes.(i).children)
    | E_wire_class (i, _) -> E_wire_class (i, t.nodes.(i).wire_class)
    | E_geom_len (i, _) -> E_geom_len (i, t.nodes.(i).geom_len)
    | E_snake (i, _) -> E_snake (i, t.nodes.(i).snake)
    | E_route (i, _) -> E_route (i, t.nodes.(i).route)
    | E_n _ -> E_n t.n
    | E_nodes _ -> invalid_arg "Tree.Journal: appended nodes have no field"

  (* Final values for every (node, field) the journal touched, plus copies
     of appended nodes — enough to replay the net edit onto any tree that
     is content-identical to the base state. *)
  let capture_redo j =
    let t = j.j_tree in
    let seen = Hashtbl.create (max 16 j.j_ops) in
    let redo = ref [] in
    List.iter
      (fun e ->
        (* (node, field) packed into one int: node ids are >= 0. *)
        let key =
          match e with
          | E_kind (i, _) -> Some (i lsl 3)
          | E_parent (i, _) -> Some ((i lsl 3) lor 1)
          | E_children (i, _) -> Some ((i lsl 3) lor 2)
          | E_wire_class (i, _) -> Some ((i lsl 3) lor 3)
          | E_geom_len (i, _) -> Some ((i lsl 3) lor 4)
          | E_snake (i, _) -> Some ((i lsl 3) lor 5)
          | E_route (i, _) -> Some ((i lsl 3) lor 6)
          | E_n _ -> Some 7
          | E_nodes _ -> None
        in
        match key with
        | None -> ()
        | Some k ->
          if not (Hashtbl.mem seen k) then begin
            Hashtbl.add seen k ();
            redo := current t e :: !redo
          end)
      j.j_undo;
    if t.n > j.j_base_n then
      redo :=
        E_nodes
          (Array.map copy_node
             (Array.sub t.nodes j.j_base_n (t.n - j.j_base_n)))
        :: !redo;
    !redo

  let detach_journal j =
    (match j.j_tree.journal with
    | Some j' when j' == j -> j.j_tree.journal <- None
    | _ -> ());
    j.j_closed <- true

  let rollback j =
    if j.j_closed then invalid_arg "Tree.Journal.rollback: journal closed";
    let t = j.j_tree in
    if not (consistent j) then begin
      detach_journal j;
      invalid_arg "Tree.Journal.rollback: tree mutated outside the journal"
    end;
    j.j_redo <- capture_redo j;
    List.iter (apply_undo t) j.j_undo;
    detach_journal j;
    (* Bump, never restore: the same tree object must not revisit an old
       revision number after intervening content changes, or revision-keyed
       memos in the incremental sessions could hit falsely. *)
    touch t

  let commit j =
    if j.j_closed then invalid_arg "Tree.Journal.commit: journal closed";
    j.j_redo <- capture_redo j;
    detach_journal j

  let abandon j = detach_journal j

  let replay j ~onto =
    if not j.j_closed then
      invalid_arg "Tree.Journal.replay: commit or roll back first";
    if onto.n <> j.j_base_n then
      invalid_arg "Tree.Journal.replay: target size differs from base";
    match onto.journal with
    | Some _ when not j.j_value_only ->
      invalid_arg
        "Tree.Journal.replay: structural redo log under an active journal"
    | Some _ ->
      (* Journaled replay: each value entry is one mutation site, exactly
         as if the public mutator had written it — so the target
         journal stays consistent, value-only and rollback-able. *)
      List.iter
        (fun e ->
          match e with
          | E_kind (i, _) | E_wire_class (i, _) | E_geom_len (i, _)
          | E_snake (i, _) | E_route (i, _) ->
            jrecord onto ~touched:[ i ] [ current onto e ];
            apply_undo onto e;
            touch onto
          | E_parent _ | E_children _ | E_n _ | E_nodes _ ->
            invalid_arg "Tree.Journal.replay: structural entry in a value log")
        j.j_redo
    | None ->
      List.iter
        (fun e ->
          match e with
          | E_nodes nodes ->
            Array.iter
              (fun nd ->
                grow onto;
                onto.nodes.(onto.n) <- copy_node nd;
                onto.n <- onto.n + 1)
              nodes
          | e -> apply_undo onto e)
        j.j_redo;
      touch onto
end

(* Struct-of-arrays snapshot of a {!Tree}: topology as parent /
   first-child / next-sibling index arrays (sibling order preserves the
   tree's children-list order, which fixes the RC extraction order), and
   the per-node electrical constants pre-resolved from the technology
   into flat [Bigarray] float64 buffers. The flat RC compiler
   ([Analysis.Rcflat]) walks these arrays instead of chasing boxed node
   records, so a stage extraction touches only dense memory.

   The snapshot is keyed by the tree's revision counter: [sync] is a
   no-op while the revision matches, applies a touched-node patch when
   the caller can vouch for the dirty set (the journal's touched list),
   and falls back to a full recompile otherwise. Electrical values are
   stored exactly as the boxed accessors produce them
   ([Tech.Wire.res]/[Tech.Composite.c_in]/…), so any arithmetic the flat
   path performs on them is bit-identical to the boxed path's. *)

type f64 = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

let ba n : f64 =
  let a = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout (max n 1) in
  Bigarray.Array1.fill a 0.;
  a

(* Kind tags; dense ints so the extraction switch is a flat compare. *)
let k_source = 0
let k_internal = 1
let k_buffer = 2
let k_sink = 3

type t = {
  mutable tree : Tree.t;   (* rebindable: a scratch arena serves many trees *)
  mutable revision : int;  (* tree revision the arrays reflect *)
  mutable n : int;
  (* Topology *)
  mutable parent : int array;
  mutable first_child : int array;   (* -1 = leaf *)
  mutable next_sibling : int array;  (* -1 = last sibling *)
  (* Per-node scalars *)
  mutable kind : int array;          (* k_source … k_sink *)
  mutable len : int array;           (* electrical wire length, nm *)
  mutable xs : int array;
  mutable ys : int array;
  mutable inverting : int array;     (* buffers: 1 when inverting *)
  (* Electricals, resolved against the shared technology *)
  mutable wire_r : f64;              (* Tech.Wire.res wire len *)
  mutable wire_c : f64;              (* Tech.Wire.cap wire len *)
  mutable tap_c : f64;               (* sink load or buffer input cap *)
  mutable drv_c_out : f64;           (* buffer output cap *)
  mutable drv_r_up : f64;
  mutable drv_r_down : f64;
  mutable drv_d_intr : f64;
  mutable drv_slew_c : f64;
}

let update_node a id =
  let nd = Tree.node a.tree id in
  a.parent.(id) <- nd.Tree.parent;
  let len = Tree.wire_len nd in
  a.len.(id) <- len;
  a.xs.(id) <- nd.Tree.pos.Geometry.Point.x;
  a.ys.(id) <- nd.Tree.pos.Geometry.Point.y;
  (if nd.Tree.parent >= 0 then begin
     let wire = Tree.wire_of a.tree nd in
     a.wire_r.{id} <- Tech.Wire.res wire len;
     a.wire_c.{id} <- Tech.Wire.cap wire len
   end
   else begin
     a.wire_r.{id} <- 0.;
     a.wire_c.{id} <- 0.
   end);
  match nd.Tree.kind with
  | Tree.Source ->
    a.kind.(id) <- k_source;
    a.tap_c.{id} <- 0.;
    a.drv_c_out.{id} <- 0.;
    a.drv_r_up.{id} <- 0.;
    a.drv_r_down.{id} <- 0.;
    a.drv_d_intr.{id} <- 0.;
    a.drv_slew_c.{id} <- 0.;
    a.inverting.(id) <- 0
  | Tree.Internal ->
    a.kind.(id) <- k_internal;
    a.tap_c.{id} <- 0.;
    a.drv_c_out.{id} <- 0.;
    a.drv_r_up.{id} <- 0.;
    a.drv_r_down.{id} <- 0.;
    a.drv_d_intr.{id} <- 0.;
    a.drv_slew_c.{id} <- 0.;
    a.inverting.(id) <- 0
  | Tree.Buffer b ->
    a.kind.(id) <- k_buffer;
    a.tap_c.{id} <- Tech.Composite.c_in b;
    a.drv_c_out.{id} <- Tech.Composite.c_out b;
    a.drv_r_up.{id} <- Tech.Composite.r_up b;
    a.drv_r_down.{id} <- Tech.Composite.r_down b;
    a.drv_d_intr.{id} <- Tech.Composite.d_intrinsic b;
    a.drv_slew_c.{id} <- Tech.Composite.slew_coeff b;
    a.inverting.(id) <- (if Tech.Composite.inverting b then 1 else 0)
  | Tree.Sink s ->
    a.kind.(id) <- k_sink;
    a.tap_c.{id} <- s.Tree.cap;
    a.drv_c_out.{id} <- 0.;
    a.drv_r_up.{id} <- 0.;
    a.drv_r_down.{id} <- 0.;
    a.drv_d_intr.{id} <- 0.;
    a.drv_slew_c.{id} <- 0.;
    a.inverting.(id) <- 0

(* Rebuild the sibling chain below [id] from the tree's children list;
   also refreshes the children's parent back-pointers (a reparent edit
   touches both ends, but rewriting here costs nothing and keeps the
   chain self-consistent whichever end the caller patches first). *)
let rebuild_chain a id =
  let nd = Tree.node a.tree id in
  let rec link = function
    | [] -> -1
    | c :: rest ->
      a.parent.(c) <- id;
      a.next_sibling.(c) <- link rest;
      c
  in
  a.first_child.(id) <- link nd.Tree.children

(* Grows the arrays only when capacity is short: a rebound scratch arena
   keeps its largest allocation, and entries past [n] are never read. *)
let recompile a =
  let n = Tree.size a.tree in
  if Array.length a.parent < n then begin
    a.parent <- Array.make (max n 1) (-1);
    a.first_child <- Array.make (max n 1) (-1);
    a.next_sibling <- Array.make (max n 1) (-1);
    a.kind <- Array.make (max n 1) k_internal;
    a.len <- Array.make (max n 1) 0;
    a.xs <- Array.make (max n 1) 0;
    a.ys <- Array.make (max n 1) 0;
    a.inverting <- Array.make (max n 1) 0;
    a.wire_r <- ba n;
    a.wire_c <- ba n;
    a.tap_c <- ba n;
    a.drv_c_out <- ba n;
    a.drv_r_up <- ba n;
    a.drv_r_down <- ba n;
    a.drv_d_intr <- ba n;
    a.drv_slew_c <- ba n
  end;
  a.n <- n;
  (* [rebuild_chain] links only nodes that have a parent: reset the rest
     (root, detached nodes) as a fresh allocation would have them. *)
  Array.fill a.next_sibling 0 n (-1);
  for id = 0 to n - 1 do
    update_node a id;
    rebuild_chain a id
  done;
  a.revision <- Tree.revision a.tree

let compile tree =
  let a =
    { tree; revision = min_int; n = 0; parent = [||]; first_child = [||];
      next_sibling = [||]; kind = [||]; len = [||]; xs = [||]; ys = [||];
      inverting = [||]; wire_r = ba 0; wire_c = ba 0; tap_c = ba 0;
      drv_c_out = ba 0; drv_r_up = ba 0; drv_r_down = ba 0;
      drv_d_intr = ba 0; drv_slew_c = ba 0 }
  in
  recompile a;
  a

let rebind a tree =
  a.tree <- tree;
  recompile a

(* A one-node tree on the same technology: what a released arena points
   at, so it keeps its capacity but not its last tree. *)
let release a =
  rebind a (Tree.create ~tech:(Tree.tech a.tree) ~source_pos:Geometry.Point.origin)

let in_sync a = a.revision = Tree.revision a.tree
let revision a = a.revision
let tree a = a.tree
let size a = a.n
let root a = Tree.root a.tree

let sync ?touched a =
  if not (in_sync a) then
    match touched with
    | Some ids when Tree.size a.tree = a.n ->
      List.iter
        (fun id ->
          if id >= 0 && id < a.n then begin
            update_node a id;
            rebuild_chain a id
          end)
        ids;
      a.revision <- Tree.revision a.tree
    | _ -> recompile a

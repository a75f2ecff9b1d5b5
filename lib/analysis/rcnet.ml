module Tree = Ctree.Tree

type tap_kind = Tap_sink of int | Tap_buffer of int

type t = {
  parent : int array;
  res : float array;
  cap : float array;
  taps : (int * tap_kind) array;
  size : int;
}

type stage = { driver : int; rc : t }

(* The single point of truth for the RC segmentation granularity (nm).
   [Core.Config.default] and every ?seg_len default below read it. *)
let default_seg_len = 30_000

(* Growable builder for one stage's rc arrays: [finish] copies the filled
   prefix out, so [reset] makes the (already grown) buffers available to
   the next stage of the same extraction without re-allocating. *)
type builder = {
  mutable parent_b : int array;
  mutable res_b : float array;
  mutable cap_b : float array;
  mutable n : int;
  mutable taps_b : (int * tap_kind) list;
}

let new_builder () =
  { parent_b = Array.make 64 (-1); res_b = Array.make 64 0.;
    cap_b = Array.make 64 0.; n = 0; taps_b = [] }

let reset b =
  b.n <- 0;
  b.taps_b <- []

let push b ~parent ~res ~cap =
  if b.n = Array.length b.parent_b then begin
    let grow a fill =
      let bigger = Array.make (2 * b.n) fill in
      Array.blit a 0 bigger 0 b.n;
      bigger
    in
    b.parent_b <- grow b.parent_b (-1);
    b.res_b <- grow b.res_b 0.;
    b.cap_b <- grow b.cap_b 0.
  end;
  let id = b.n in
  b.parent_b.(id) <- parent;
  b.res_b.(id) <- res;
  b.cap_b.(id) <- cap;
  b.n <- b.n + 1;
  id

let finish b =
  {
    parent = Array.sub b.parent_b 0 b.n;
    res = Array.sub b.res_b 0 b.n;
    cap = Array.sub b.cap_b 0 b.n;
    taps = Array.of_list (List.rev b.taps_b);
    size = b.n;
  }

(* Expand one driver's stage into [b]. [on_buffer] fires for every
   downstream buffer reached (the drivers of the next stages). *)
let build_stage b ~seg_len tree ~driver ~on_buffer =
  reset b;
  let driver_node = Tree.node tree driver in
  let out_cap =
    match driver_node.Tree.kind with
    | Tree.Buffer buf -> Tech.Composite.c_out buf
    | Tree.Source | Tree.Internal | Tree.Sink _ -> 0.
  in
  let root_rc = push b ~parent:(-1) ~res:0. ~cap:out_cap in
  (* Expand the wire from [up_rc] down to ctree node [id], then recurse
     or terminate at taps. *)
  let rec expand up_rc id =
    let nd = Tree.node tree id in
    let len = Tree.wire_len nd in
    let wire = Tree.wire_of tree nd in
    let nsegs = max 1 ((len + seg_len - 1) / seg_len) in
    let total_r = Tech.Wire.res wire len in
    let total_c = Tech.Wire.cap wire len in
    let seg_r = total_r /. float_of_int nsegs in
    let seg_c = total_c /. float_of_int nsegs in
    (* π-segmentation: place each segment's capacitance at its far end;
       the near half of the first segment lands on the upstream node.
       For simplicity each segment is an RC L-section — with several
       segments per wire this converges to the same distributed
       behaviour. *)
    let last = ref up_rc in
    for _ = 1 to nsegs do
      last := push b ~parent:!last ~res:seg_r ~cap:seg_c
    done;
    let end_rc = !last in
    (match nd.Tree.kind with
    | Tree.Sink s ->
      b.cap_b.(end_rc) <- b.cap_b.(end_rc) +. s.Tree.cap;
      b.taps_b <- (end_rc, Tap_sink id) :: b.taps_b
    | Tree.Buffer buf ->
      b.cap_b.(end_rc) <- b.cap_b.(end_rc) +. Tech.Composite.c_in buf;
      b.taps_b <- (end_rc, Tap_buffer id) :: b.taps_b;
      on_buffer id
    | Tree.Internal ->
      List.iter (fun c -> expand end_rc c) nd.Tree.children
    | Tree.Source -> invalid_arg "Rcnet.stages: source below root")
  in
  List.iter (fun c -> expand root_rc c) driver_node.Tree.children;
  { driver; rc = finish b }

let stages ?(seg_len = default_seg_len) tree =
  (* Queue of stage drivers to expand, seeded with the source. One
     builder serves every stage: [finish] copies out, [reset] recycles. *)
  let builder = new_builder () in
  let pending = Queue.create () in
  Queue.add (Tree.root tree) pending;
  let out = ref [] in
  while not (Queue.is_empty pending) do
    let driver = Queue.pop pending in
    let stage =
      build_stage builder ~seg_len tree ~driver
        ~on_buffer:(fun id -> Queue.add id pending)
    in
    out := stage :: !out
  done;
  List.rev !out

(* 64-bit FNV-1a over the electrical content of a stage: topology (parent
   pointers), element values (bit patterns of res/cap) and the tap layout
   (rc indices and kinds, but NOT ctree node ids — the fingerprint must
   survive tree compaction/renumbering as long as the electricals match). *)
let fingerprint rc =
  let open Int64 in
  let prime = 0x100000001b3L in
  let h = ref 0xcbf29ce484222325L in
  let mix x = h := mul (logxor !h x) prime in
  let mix_int i = mix (of_int i) in
  let mix_float f = mix (bits_of_float f) in
  mix_int rc.size;
  for i = 0 to rc.size - 1 do
    mix_int rc.parent.(i);
    mix_float rc.res.(i);
    mix_float rc.cap.(i)
  done;
  mix_int (Array.length rc.taps);
  Array.iter
    (fun (rc_idx, kind) ->
      mix_int rc_idx;
      mix_int (match kind with Tap_sink _ -> 0 | Tap_buffer _ -> 1))
    rc.taps;
  !h

let total_cap rc =
  let acc = ref 0. in
  for i = 1 to rc.size - 1 do
    acc := !acc +. rc.cap.(i)
  done;
  !acc

(* Flat RC stage pool — the evaluator's stage representation for every
   engine: every stage of a tree packed into one contiguous pair of
   float64 Bigarray buffers (res / cap) plus a stage-local parent index
   array, with CSR-style per-stage offsets. The extraction walks a
   [Ctree.Arena] snapshot (first-child / next-sibling chains) and
   replicates [Rcnet.build_stage]'s push order and float arithmetic
   exactly, so per-stage fingerprints — and therefore every content-keyed
   cache and the adaptive controller's rate selection — are bit-identical
   to the boxed extraction's.

   Within a stage, rc indices are already topological (parents pushed
   before children by the DFS), so the precomputed leaf-to-root
   elimination order is simply [size-1 downto 1] over the slice: the flat
   transient kernel streams the slice with [unsafe_get]/[unsafe_set] and
   never chases a pointer.

   Dirty-set updates re-extract a single stage in place: each stage's
   region carries a little slack, a stage that outgrows it relocates to
   the pool tail (the hole is accounted in [wasted]) and the pool
   compacts itself once relocation waste exceeds half the pool. *)

module Arena = Ctree.Arena

type f64 = Arena.f64

let ba n : f64 =
  let a = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout (max n 1) in
  Bigarray.Array1.fill a 0.;
  a

type t = {
  arena : Arena.t;
  seg_len : int;
  (* The pool. [parent] holds STAGE-LOCAL parent indices (-1 at each
     stage root), so a stage region can be moved without rewriting it. *)
  mutable res : f64;
  mutable cap : f64;
  mutable parent : int array;
  mutable plen : int;            (* used prefix of the pool *)
  mutable wasted : int;          (* slots stranded by relocations *)
  (* Per-stage metadata, indexed by stage position (BFS order, source
     stage first — identical to [Rcnet.stages] list order). *)
  mutable nstages : int;
  mutable off : int array;       (* region start in the pool *)
  mutable size : int array;      (* current rc node count *)
  mutable slots : int array;     (* region capacity (size + slack) *)
  mutable driver : int array;    (* ctree node id of the stage driver *)
  mutable fp : int64 array;      (* = Rcnet.fingerprint of the stage *)
  mutable watch : int array array;     (* tap rc indices, tap order *)
  mutable tap_kind : int array array;  (* 0 = sink, 1 = buffer *)
  mutable tap_node : int array array;  (* ctree node ids *)
  (* Stage levels: BFS depth boundaries. Stages are emitted in BFS order,
     so level [l] is the contiguous index range
     [level_off.(l), level_off.(l+1)); stages within one level have no
     driver/launch dependency on each other — the batched parallel solve
     fans out over these ranges. *)
  mutable nlevels : int;
  mutable level_off : int array;
}

(* ------------------------------------------------------------------ *)
(* Growable storage                                                    *)
(* ------------------------------------------------------------------ *)

let ensure_pool p need =
  let capn = Bigarray.Array1.dim p.res in
  if need > capn then begin
    let c = max need (2 * capn) in
    let res' = ba c and cap' = ba c in
    Bigarray.Array1.blit p.res (Bigarray.Array1.sub res' 0 capn);
    Bigarray.Array1.blit p.cap (Bigarray.Array1.sub cap' 0 capn);
    p.res <- res';
    p.cap <- cap';
    let par' = Array.make c (-1) in
    Array.blit p.parent 0 par' 0 capn;
    p.parent <- par'
  end

let ensure_meta p need =
  let capn = Array.length p.off in
  if need > capn then begin
    let c = max need (max 16 (2 * capn)) in
    let gi a fill =
      let b = Array.make c fill in
      Array.blit a 0 b 0 capn;
      b
    in
    p.off <- gi p.off 0;
    p.size <- gi p.size 0;
    p.slots <- gi p.slots 0;
    p.driver <- gi p.driver (-1);
    let fp' = Array.make c 0L in
    Array.blit p.fp 0 fp' 0 capn;
    p.fp <- fp';
    let ga a =
      let b = Array.make c [||] in
      Array.blit a 0 b 0 capn;
      b
    in
    p.watch <- ga p.watch;
    p.tap_kind <- ga p.tap_kind;
    p.tap_node <- ga p.tap_node
  end

(* ------------------------------------------------------------------ *)
(* Extraction                                                          *)
(* ------------------------------------------------------------------ *)

(* RC node count of the stage below [driver] — an int-only walk, used to
   reserve the region before writing. *)
let measure p ~driver =
  let a = p.arena in
  let len = a.Arena.len and kind = a.Arena.kind in
  let first = a.Arena.first_child and next = a.Arena.next_sibling in
  let seg_len = p.seg_len in
  let rec go acc id =
    let nsegs = max 1 ((len.(id) + seg_len - 1) / seg_len) in
    let acc = acc + nsegs in
    if kind.(id) = Arena.k_internal then children acc id else acc
  and children acc id =
    let acc = ref acc and c = ref first.(id) in
    while !c >= 0 do
      acc := go !acc !c;
      c := next.(!c)
    done;
    !acc
  in
  1 + children 0 driver

(* Mirror of [Rcnet.fingerprint] over a pool region; the mixed values are
   bit-identical to the boxed stage's, so the hashes agree. *)
let fingerprint_region p ~base ~n ~watch ~tap_kind =
  let prime = 0x100000001b3L in
  let h = ref 0xcbf29ce484222325L in
  (* Each mix is spelled out, with no closure over [h], so the
     accumulator stays an unboxed local instead of allocating per mix. *)
  h := Int64.mul (Int64.logxor !h (Int64.of_int n)) prime;
  let res = p.res and cap = p.cap and parent = p.parent in
  for i = base to base + n - 1 do
    h := Int64.mul (Int64.logxor !h (Int64.of_int parent.(i))) prime;
    h := Int64.mul (Int64.logxor !h (Int64.bits_of_float res.{i})) prime;
    h := Int64.mul (Int64.logxor !h (Int64.bits_of_float cap.{i})) prime
  done;
  let ntaps = Array.length watch in
  h := Int64.mul (Int64.logxor !h (Int64.of_int ntaps)) prime;
  for k = 0 to ntaps - 1 do
    h := Int64.mul (Int64.logxor !h (Int64.of_int watch.(k))) prime;
    h := Int64.mul (Int64.logxor !h (Int64.of_int tap_kind.(k))) prime
  done;
  !h

(* Write the stage driven by [driver] at pool offset [base] and fill its
   metadata at stage index [si]. Push order, parent indices and every
   float operation replicate [Rcnet.build_stage] verbatim. *)
let extract p ~si ~driver ~base ~on_buffer =
  let a = p.arena in
  let len = a.Arena.len and kind = a.Arena.kind in
  let first = a.Arena.first_child and next = a.Arena.next_sibling in
  let wire_r = a.Arena.wire_r and wire_c = a.Arena.wire_c in
  let tap_c = a.Arena.tap_c in
  let seg_len = p.seg_len in
  let res = p.res and cap = p.cap and parent = p.parent in
  let out_cap =
    if kind.(driver) = Arena.k_buffer then a.Arena.drv_c_out.{driver} else 0.
  in
  parent.(base) <- -1;
  res.{base} <- 0.;
  cap.{base} <- out_cap;
  let count = ref 1 in
  let taps = ref [] in
  let ntaps = ref 0 in
  let rec expand up id =
    let nsegs = max 1 ((len.(id) + seg_len - 1) / seg_len) in
    let fsegs = float_of_int nsegs in
    let seg_r = wire_r.{id} /. fsegs in
    let seg_c = wire_c.{id} /. fsegs in
    let last = ref up in
    for _ = 1 to nsegs do
      let j = !count in
      parent.(base + j) <- !last;
      res.{base + j} <- seg_r;
      cap.{base + j} <- seg_c;
      count := j + 1;
      last := j
    done;
    let e = !last in
    let k = kind.(id) in
    if k = Arena.k_internal then begin
      let c = ref first.(id) in
      while !c >= 0 do
        expand e !c;
        c := next.(!c)
      done
    end
    else if k = Arena.k_sink then begin
      cap.{base + e} <- cap.{base + e} +. tap_c.{id};
      taps := (e, 0, id) :: !taps;
      incr ntaps
    end
    else if k = Arena.k_buffer then begin
      cap.{base + e} <- cap.{base + e} +. tap_c.{id};
      taps := (e, 1, id) :: !taps;
      incr ntaps;
      on_buffer id
    end
    else invalid_arg "Rcflat: source below stage root"
  in
  let c = ref first.(driver) in
  while !c >= 0 do
    expand 0 !c;
    c := next.(!c)
  done;
  let n = !count in
  let ntaps = !ntaps in
  let watch = Array.make ntaps 0 in
  let tkind = Array.make ntaps 0 in
  let tnode = Array.make ntaps 0 in
  (* The list holds taps newest-first; filling backwards restores the
     DFS (= boxed) tap order. *)
  let k = ref (ntaps - 1) in
  List.iter
    (fun (idx, kd, id) ->
      watch.(!k) <- idx;
      tkind.(!k) <- kd;
      tnode.(!k) <- id;
      decr k)
    !taps;
  p.off.(si) <- base;
  p.size.(si) <- n;
  p.driver.(si) <- driver;
  p.watch.(si) <- watch;
  p.tap_kind.(si) <- tkind;
  p.tap_node.(si) <- tnode;
  p.fp.(si) <- fingerprint_region p ~base ~n ~watch ~tap_kind:tkind

let slack n = max 4 (n / 8)

(* ------------------------------------------------------------------ *)
(* Compile / recompile                                                 *)
(* ------------------------------------------------------------------ *)

let push_level p depth =
  (* Stages come off the BFS queue in nondecreasing depth; open a new
     level range whenever the depth steps up. *)
  if depth >= p.nlevels then begin
    let capn = Array.length p.level_off in
    if depth + 2 > capn then begin
      let b = Array.make (max (depth + 2) (2 * capn)) 0 in
      Array.blit p.level_off 0 b 0 capn;
      p.level_off <- b
    end;
    for l = p.nlevels to depth do
      p.level_off.(l + 1) <- p.level_off.(l)
    done;
    p.nlevels <- depth + 1
  end;
  p.level_off.(depth + 1) <- p.level_off.(depth + 1) + 1

(* Reserve room for a full extraction up front, so a compile allocates
   the pool once instead of doubling its Bigarrays up from empty (each
   discarded Bigarray also speeds up the major GC). The bound counts
   every wire segment, one root per stage and each stage's slack:
   [slack] summed over stages is at most [4·stages + total/8]. *)
let reserve p =
  let a = p.arena in
  let len = a.Arena.len and kind = a.Arena.kind in
  let root = Arena.root a and seg_len = p.seg_len in
  let segs = ref 0 and stages = ref 1 in
  for id = 0 to Arena.size a - 1 do
    if id <> root then
      segs := !segs + max 1 ((len.(id) + seg_len - 1) / seg_len);
    if kind.(id) = Arena.k_buffer then incr stages
  done;
  let n = !segs + !stages in
  ensure_pool p (n + slack n + (4 * !stages));
  ensure_meta p !stages

let recompile p =
  reserve p;
  p.plen <- 0;
  p.wasted <- 0;
  p.nstages <- 0;
  p.nlevels <- 0;
  if Array.length p.level_off < 2 then p.level_off <- Array.make 8 0;
  p.level_off.(0) <- 0;
  p.level_off.(1) <- 0;
  let pending = Queue.create () in
  Queue.add (Arena.root p.arena, 0) pending;
  while not (Queue.is_empty pending) do
    let driver, depth = Queue.pop pending in
    let si = p.nstages in
    ensure_meta p (si + 1);
    let n = measure p ~driver in
    let cap_slots = n + slack n in
    ensure_pool p (p.plen + cap_slots);
    extract p ~si ~driver ~base:p.plen
      ~on_buffer:(fun id -> Queue.add (id, depth + 1) pending);
    p.slots.(si) <- cap_slots;
    p.plen <- p.plen + cap_slots;
    p.nstages <- si + 1;
    push_level p depth
  done

let compile ?(seg_len = Rcnet.default_seg_len) arena =
  let p =
    { arena; seg_len; res = ba 0; cap = ba 0; parent = Array.make 1 (-1);
      plen = 0; wasted = 0; nstages = 0; off = [||]; size = [||];
      slots = [||]; driver = [||]; fp = [||]; watch = [||]; tap_kind = [||];
      tap_node = [||]; nlevels = 0; level_off = Array.make 8 0 }
  in
  recompile p;
  p

(* ------------------------------------------------------------------ *)
(* In-place dirty update                                               *)
(* ------------------------------------------------------------------ *)

let compact p =
  let total = ref 0 in
  for si = 0 to p.nstages - 1 do
    total := !total + p.slots.(si)
  done;
  let res' = ba !total and cap' = ba !total in
  let par' = Array.make (max !total 1) (-1) in
  let cursor = ref 0 in
  for si = 0 to p.nstages - 1 do
    let o = p.off.(si) and s = p.slots.(si) in
    Bigarray.Array1.blit
      (Bigarray.Array1.sub p.res o s)
      (Bigarray.Array1.sub res' !cursor s);
    Bigarray.Array1.blit
      (Bigarray.Array1.sub p.cap o s)
      (Bigarray.Array1.sub cap' !cursor s);
    Array.blit p.parent o par' !cursor s;
    p.off.(si) <- !cursor;
    cursor := !cursor + s
  done;
  p.res <- res';
  p.cap <- cap';
  p.parent <- par';
  p.plen <- !cursor;
  p.wasted <- 0

(* Re-extract one stage after its tree content changed. The driver and
   the stage's position in the BFS order are structural invariants on the
   dirty path (structural edits force a full recompile upstream). *)
let update_stage p si =
  let driver = p.driver.(si) in
  let n = measure p ~driver in
  if n <= p.slots.(si) then
    extract p ~si ~driver ~base:p.off.(si) ~on_buffer:(fun _ -> ())
  else begin
    (* Outgrew its region: relocate to the tail, strand the old slots. *)
    p.wasted <- p.wasted + p.slots.(si);
    let cap_slots = n + slack n in
    ensure_pool p (p.plen + cap_slots);
    extract p ~si ~driver ~base:p.plen ~on_buffer:(fun _ -> ());
    p.slots.(si) <- cap_slots;
    p.plen <- p.plen + cap_slots;
    if 2 * p.wasted > p.plen then compact p
  end

(* ------------------------------------------------------------------ *)
(* Views                                                               *)
(* ------------------------------------------------------------------ *)

let nstages p = p.nstages
let total_nodes p = p.plen - p.wasted

(* Materialise a boxed [Rcnet.t] copy of one stage for the engines that
   do not stream the pool (boxed transient, moments, Elmore). *)
let stage_rc p si =
  let base = p.off.(si) and n = p.size.(si) in
  let res = Array.create_float n and cap = Array.create_float n in
  for i = 0 to n - 1 do
    Array.unsafe_set res i p.res.{base + i};
    Array.unsafe_set cap i p.cap.{base + i}
  done;
  let watch = p.watch.(si) and kinds = p.tap_kind.(si)
  and nodes = p.tap_node.(si) in
  let taps =
    Array.init (Array.length watch) (fun k ->
        let id = nodes.(k) in
        ( watch.(k),
          if kinds.(k) = 0 then Rcnet.Tap_sink id else Rcnet.Tap_buffer id ))
  in
  { Rcnet.parent = Array.sub p.parent base n; res; cap; taps; size = n }

module Tree = Ctree.Tree
module Arena = Ctree.Arena

type engine = Elmore_model | Arnoldi | Spice
type transition = Rise | Fall

let flip = function Rise -> Fall | Fall -> Rise

type run = {
  corner : Tech.Corner.t;
  transition : transition;
  latency : float array;
  slew : float array;
  worst_slew : float;
  worst_slew_node : int;
}

type t = {
  runs : run list;
  sinks : int array;
  skew_rise : float;
  skew_fall : float;
  skew : float;
  t_min : float;
  t_max : float;
  clr : float;
  slew_violations : int;
  cap_ok : bool;
  stats : Ctree.Stats.t;
}

(* Atomic: the suite runner fans whole flows out over domains, so the
   process-wide run count is bumped from several domains at once. *)
let counter = Atomic.make 0
let eval_count () = Atomic.get counter
let reset_eval_count () = Atomic.set counter 0

(* The inverter's internal switching ramp: mostly a device property, with a
   mild dependence on how slowly the input arrives. Quantised to a ¼ ps
   grid so that last-bit noise in an upstream stage's slew cannot ripple a
   fresh (r_drv, s_drv) cache key into every downstream stage — any
   self-consistent evaluator is admissible (paper §V fn. 2), and both
   [evaluate] and [Incremental.refresh] share this exact function. *)
let internal_ramp_slew ~in_slew =
  let raw = Float.max 2.0 (0.15 *. in_slew) in
  Float.round (raw *. 4.) /. 4.

(* Raised by a pass whose running worst tap slew has passed the caller's
   [max_slew]; [screen] turns it into [None]. The default bound is
   infinite, so passes without one never raise it. *)
exception Slew_exceeded

(* Launch-chain state of one corner × transition pass over the stage
   pool. Split out of the propagation loop so the level-batched parallel
   refresh can advance many passes in lockstep: gather the stage drives
   of one DAG level for every pass, solve them all, then apply the taps —
   in stage order, so every float and every worst-slew comparison matches
   the sequential pass exactly. *)
type pstate = {
  p_latency : float array;
  p_slew : float array;
  p_launch : float array;
  p_out_tr : transition array;
  p_in_slew : float array;
  mutable p_worst : float;
  mutable p_worst_node : int;
}

let pstate_make tree source_transition =
  let n = Tree.size tree in
  let tech = Tree.tech tree in
  let st =
    { p_latency = Array.make n nan; p_slew = Array.make n nan;
      p_launch = Array.make n nan;
      p_out_tr = Array.make n source_transition;
      p_in_slew = Array.make n tech.Tech.source_slew;
      p_worst = 0.; p_worst_node = -1 }
  in
  st.p_launch.(Tree.root tree) <- 0.;
  st

(* Driver parameters of stage [si] given the pass state: reads the
   arena's kind tag and stored drive resistances — the exact values the
   tree's buffer accessors return. *)
let stage_drive tech (arena : Arena.t) (pool : Rcflat.t)
    (corner : Tech.Corner.t) st si =
  let driver = pool.Rcflat.driver.(si) in
  let tr = st.p_out_tr.(driver) in
  let k = arena.Arena.kind.(driver) in
  let r_base =
    if k = Arena.k_source then tech.Tech.source_r
    else if k = Arena.k_buffer then
      match tr with
      | Rise -> arena.Arena.drv_r_up.{driver}
      | Fall -> arena.Arena.drv_r_down.{driver}
    else invalid_arg "Evaluator: stage driven by a non-driver node"
  in
  let r_drv = r_base *. corner.Tech.Corner.r_scale in
  let s_drv =
    if k = Arena.k_source then tech.Tech.source_slew
    else internal_ramp_slew ~in_slew:st.p_in_slew.(driver)
  in
  (driver, tr, r_drv, s_drv)

let pstate_apply (arena : Arena.t) (pool : Rcflat.t)
    (corner : Tech.Corner.t) st si ~driver ~tr results =
  let nodes = pool.Rcflat.tap_node.(si) in
  let kinds = pool.Rcflat.tap_kind.(si) in
  let launch_d = st.p_launch.(driver) in
  for k = 0 to Array.length nodes - 1 do
    let id = nodes.(k) in
    let d, s = results.(k) in
    let arrival = launch_d +. d in
    st.p_latency.(id) <- arrival;
    st.p_slew.(id) <- s;
    if s > st.p_worst then begin
      st.p_worst <- s;
      st.p_worst_node <- id
    end;
    if kinds.(k) = 1 then begin
      let gate_delay =
        (arena.Arena.drv_d_intr.{id} *. corner.Tech.Corner.d_scale)
        +. (arena.Arena.drv_slew_c.{id} *. s)
      in
      st.p_launch.(id) <- arrival +. gate_delay;
      st.p_in_slew.(id) <- s;
      st.p_out_tr.(id) <- (if arena.Arena.inverting.(id) = 1 then flip tr else tr)
    end
  done

let pstate_run st corner transition =
  { corner; transition; latency = st.p_latency; slew = st.p_slew;
    worst_slew = st.p_worst; worst_slew_node = st.p_worst_node }

(* One sequential corner × transition pass over the stage pool: chain
   each stage's launch from its driver's arrival, solving stage [si] with
   [solve si ~r_drv ~s_drv]. [solve] is indexed by the stage position so
   callers can attach per-stage cached state (fingerprints,
   factorisations) without recomputing it here. *)
let propagate ?(max_slew = infinity) ~solve tree arena pool
    (corner : Tech.Corner.t) source_transition =
  let tech = Tree.tech tree in
  let st = pstate_make tree source_transition in
  for si = 0 to pool.Rcflat.nstages - 1 do
    let driver, tr, r_drv, s_drv = stage_drive tech arena pool corner st si in
    let results = solve si ~r_drv ~s_drv in
    pstate_apply arena pool corner st si ~driver ~tr results;
    if st.p_worst > max_slew then raise Slew_exceeded
  done;
  pstate_run st corner source_transition

let spread latencies sinks =
  let lo = ref infinity and hi = ref neg_infinity in
  Array.iter
    (fun s ->
      let l = latencies.(s) in
      if not (Float.is_nan l) then begin
        if l < !lo then lo := l;
        if l > !hi then hi := l
      end)
    sinks;
  (!lo, !hi)

(* Corners are records; callers legitimately rebuild the corner list (e.g.
   variation sweeps), so identity is the name, not physical equality. *)
let corner_equal (a : Tech.Corner.t) (b : Tech.Corner.t) =
  a.Tech.Corner.name = b.Tech.Corner.name

(* Fold a set of per-corner/transition runs into the summary record.
   Shared verbatim by [evaluate] and [Incremental.refresh] so the two
   entry points cannot drift apart. *)
let summarize tree runs =
  let tech = Tree.tech tree in
  let sinks = Tree.sinks tree in
  let corners = tech.Tech.corners in
  let nominal = List.hd corners in
  let find corner tr =
    List.find
      (fun r -> corner_equal r.corner corner && r.transition = tr)
      runs
  in
  let skew_of r =
    let lo, hi = spread r.latency sinks in
    if Array.length sinks = 0 then 0. else hi -. lo
  in
  let nom_rise = find nominal Rise and nom_fall = find nominal Fall in
  let skew_rise = skew_of nom_rise and skew_fall = skew_of nom_fall in
  let lo_r, hi_r = spread nom_rise.latency sinks in
  let lo_f, hi_f = spread nom_fall.latency sinks in
  (* CLR: slowest corner's max latency minus fastest corner's min latency,
     per source transition. With one corner this degenerates to skew. *)
  let slow_corner =
    List.fold_left
      (fun acc c ->
        if c.Tech.Corner.r_scale > acc.Tech.Corner.r_scale then c else acc)
      nominal corners
  in
  let clr_of tr =
    let _, hi = spread (find slow_corner tr).latency sinks in
    let lo, _ = spread (find nominal tr).latency sinks in
    hi -. lo
  in
  let clr = Float.max (clr_of Rise) (clr_of Fall) in
  (* Last line of defence: a NaN here would silently disable every
     downstream comparison (minimax selection, violation gates). Infinity
     is allowed — truncated transient marches report it intentionally. *)
  let t_min = Float.min lo_r lo_f and t_max = Float.max hi_r hi_f in
  if
    Float.is_nan skew_rise || Float.is_nan skew_fall || Float.is_nan clr
    || Float.is_nan t_min || Float.is_nan t_max
  then
    Numerics.fail
      "evaluator summarize: NaN summary (skew_r=%g skew_f=%g clr=%g)"
      skew_rise skew_fall clr;
  let slew_violations =
    List.fold_left
      (fun acc r ->
        acc
        + Array.fold_left
            (fun acc s ->
              if (not (Float.is_nan s)) && s > tech.Tech.slew_limit then acc + 1
              else acc)
            0 r.slew)
      0 runs
  in
  let stats = Ctree.Stats.compute tree in
  {
    runs;
    sinks;
    skew_rise;
    skew_fall;
    skew = Float.max skew_rise skew_fall;
    t_min;
    t_max;
    clr;
    slew_violations;
    cap_ok = stats.Ctree.Stats.total_cap <= tech.Tech.cap_limit;
    stats;
  }

(* A corner's Rise and Fall passes of an unbounded evaluation marched in
   lockstep: each stage of both is one [solve_pair si ~r_drv:(rise, fall)
   ~s_drv:(rise, fall)]. Failures keep the order of the two passes run
   one after another. A paired stage that raises is re-solved single-lane
   by [solve transition si] to learn which lane raised: a Rise failure
   escapes at once, a Fall failure only once the Rise pass, finished
   alone, has not raised. *)
let paired_pass ~solve ~solve_pair tree (pool : Rcflat.t) corner =
  let tech = Tree.tech tree in
  let arena = pool.Rcflat.arena in
  let n = pool.Rcflat.nstages in
  let rise = pstate_make tree Rise and fall = pstate_make tree Fall in
  let solo tr st si =
    let driver, t, r_drv, s_drv = stage_drive tech arena pool corner st si in
    pstate_apply arena pool corner st si ~driver ~tr:t
      (solve tr si ~r_drv ~s_drv)
  in
  let rec go si =
    if si < n then begin
      let dr, trr, rr, hr = stage_drive tech arena pool corner rise si in
      let df, trf, rf, hf = stage_drive tech arena pool corner fall si in
      match solve_pair si ~r_drv:(rr, rf) ~s_drv:(hr, hf) with
      | res_r, res_f ->
        pstate_apply arena pool corner rise si ~driver:dr ~tr:trr res_r;
        pstate_apply arena pool corner fall si ~driver:df ~tr:trf res_f;
        go (si + 1)
      | exception _ -> (
        solo Rise rise si;
        match solo Fall fall si with
        | () -> go (si + 1)
        | exception e ->
          let bt = Printexc.get_raw_backtrace () in
          for si = si + 1 to n - 1 do
            solo Rise rise si
          done;
          Printexc.raise_with_backtrace e bt)
    end
  in
  go 0;
  [ pstate_run rise corner Rise; pstate_run fall corner Fall ]

(* One job per corner on the shared domain pool: [corner_runs corner] is
   the corner's Rise and Fall runs, or raises [Slew_exceeded] once a pass
   has stopped, and no mutable state crosses jobs. Verdicts are folded in corner ×
   transition order — the first stopped or failed corner decides,
   exactly as if the passes had run one after another — so the outcome
   never depends on scheduling. The caller runs a corner itself and
   helps drain the queue, so a call made on a worker domain of any pool
   (a daemon request, a region lane) adds no domain either. *)
let fan_out_corners tree corner_runs =
  let corner_job corner =
    match corner_runs corner with
    | runs -> Ok (Some runs)
    | exception Slew_exceeded -> Ok None
    | exception e -> Error e
  in
  let outcomes =
    Domain_pool.map (Domain_pool.global ()) corner_job
      (Array.of_list (Tree.tech tree).Tech.corners)
  in
  let rec fold acc i =
    if i = Array.length outcomes then
      Some (summarize tree (List.concat (List.rev acc)))
    else
      match outcomes.(i) with
      | Ok (Some runs) -> fold (runs :: acc) (i + 1)
      | Ok None -> None
      | Error e -> raise e
  in
  fold [] 0

(* Reusable arena + stage pool for stateless evaluation, rebound to each
   new tree: a recompile grows the buffers only when a tree outgrows
   them, so repeated screens stop allocating (and stop leaving Bigarrays
   for the major GC to finalise). Every call borrows one from a
   lock-guarded free list; [Domain.DLS] would not do, because serve
   systhreads share a domain and could interleave on one scratch. *)
module Scratch = struct
  type t = { mutable pool : Rcflat.t option }

  let bind s ~seg_len tree =
    match s.pool with
    | Some p when p.Rcflat.seg_len = seg_len ->
      Arena.rebind p.Rcflat.arena tree;
      Rcflat.recompile p;
      p
    | _ ->
      let p = Rcflat.compile ~seg_len (Arena.compile tree) in
      s.pool <- Some p;
      p

  (* Largest scratch the free list keeps, in words: 16 per arena node
     (8 int arrays, 8 float64 Bigarrays) plus 3 per pool slot (res, cap,
     parent). 8 MB holds every tree the benchmark workloads screen (at
     most ~4.6K nodes and ~19K slots); a scratch grown past it by a
     die-scale request goes back to the GC instead of staying resident. *)
  let max_kept_words = 1 lsl 20

  let words p =
    (16 * Array.length p.Rcflat.arena.Arena.parent)
    + (3 * Bigarray.Array1.dim p.Rcflat.res)

  let lock = Mutex.create ()
  let free = ref []

  let acquire () =
    Mutex.protect lock (fun () ->
        match !free with
        | s :: rest ->
          free := rest;
          s
        | [] -> { pool = None })

  (* A free-listed scratch keeps its capacity but not its last tree. *)
  let give_back s =
    match s.pool with
    | Some p when words p > max_kept_words -> ()
    | _ ->
      Option.iter (fun p -> Arena.release p.Rcflat.arena) s.pool;
      Mutex.protect lock (fun () -> free := s :: !free)
end

let screen ?(engine = Spice) ?(flat = false) ?(seg_len = Rcnet.default_seg_len)
    ?transient_step ?transient_mode ~max_slew tree =
  Atomic.incr counter;
  let s = Scratch.acquire () in
  Fun.protect ~finally:(fun () -> Scratch.give_back s) @@ fun () ->
  (* The scratch's arena snapshot and stage pool belong to this call, and
     stay read-only while the corners march over them. *)
  let pool = Scratch.bind s ~seg_len tree in
  let arena = pool.Rcflat.arena in
  (* A single-lane engine marches a corner's Rise pass, then its Fall. *)
  let passes solve corner =
    let rise = propagate ~max_slew ~solve tree arena pool corner Rise in
    [ rise; propagate ~max_slew ~solve tree arena pool corner Fall ]
  in
  (* One factorisation cache per corner lets its two passes share
     per-stage factorisations (and, in the adaptive modes, the coarse-rate
     factors) without allocating state arrays per stage. A cached factor
     is bit-identical to a recomputed one, so the caches change wall clock
     only. *)
  match engine with
  | Spice when flat ->
    fan_out_corners tree (fun corner ->
        let fcache = Transient.Flat.Fcache.create ()
        and ws = Transient.domain_workspace () in
        passes
          (fun si ~r_drv ~s_drv ->
            Transient.Flat.solve ?step:transient_step ?mode:transient_mode
              ~fcache ~ws pool ~si ~r_drv ~s_drv)
          corner)
  | _ -> (
    (* The boxed kernel and the model engines solve a boxed copy of each
       stage, materialised once before the corners fan out. *)
    let rcs = Array.init (Rcflat.nstages pool) (Rcflat.stage_rc pool) in
    match engine with
    | Spice ->
      (* The boxed kernel pairs an unbounded evaluation's Rise and Fall,
         as sessions do. A bounded screen marches them one after another:
         paired, a Rise stop would leave the Fall stages marched beside
         it solved for nothing, work the sequential order never does. *)
      fan_out_corners tree (fun corner ->
          let fcache = Transient.Fcache.create ()
          and ws_rise, ws_fall = Transient.domain_workspace_pair () in
          let solve tr si ~r_drv ~s_drv =
            Transient.solve ?step:transient_step ?mode:transient_mode ~fcache
              ~fp:pool.Rcflat.fp.(si)
              ~ws:(match tr with Rise -> ws_rise | Fall -> ws_fall)
              rcs.(si) ~r_drv ~s_drv
          in
          if max_slew < infinity then passes (solve Rise) corner
          else
            paired_pass ~solve
              ~solve_pair:(fun si ~r_drv ~s_drv ->
                Transient.solve_pair ?step:transient_step ?mode:transient_mode
                  ~fcache ~fp:pool.Rcflat.fp.(si) ~ws:(ws_rise, ws_fall)
                  rcs.(si) ~r_drv ~s_drv)
              tree pool corner)
    | Arnoldi ->
      fan_out_corners tree (passes (fun si -> Moments.solve rcs.(si)))
    | Elmore_model ->
      fan_out_corners tree (passes (fun si -> Elmore.solve rcs.(si))))

let evaluate ?engine ?flat ?seg_len ?transient_step ?transient_mode tree =
  Option.get
    (screen ?engine ?flat ?seg_len ?transient_step ?transient_mode
       ~max_slew:infinity tree)

let nominal_run t tr =
  let nominal = (List.hd t.runs).corner in
  List.find
    (fun r -> r.transition = tr && corner_equal r.corner nominal)
    t.runs

let ok t = t.slew_violations = 0 && t.cap_ok

let pp_summary ppf t =
  Format.fprintf ppf
    "skew=%.3fps (r %.3f / f %.3f) clr=%.3fps lat=[%.1f,%.1f]ps slewviol=%d%s"
    t.skew t.skew_rise t.skew_fall t.clr t.t_min t.t_max t.slew_violations
    (if t.cap_ok then "" else " CAP-OVER")

type cache_stats = {
  hits : int;
  misses : int;
  refreshes : int;
  fast_refreshes : int;
  dirty_refreshes : int;
  entries : int;
  factored_entries : int;
  store_hits : int;
  store_misses : int;
}

(* A journaled edit, as reported by the tree journal: the revision the
   edit started from and the node ids it touched. Sessions chain hints —
   a hint anchored at the revision the session last saw lets a refresh
   re-extract only the stages those nodes live in. *)
type edit_hint = { base_revision : int; nodes : int list }

module Store = struct
  (* Cross-session stage-result sharing for a long-lived process: the
     same content-derived (fingerprint, r_drv, s_drv) keys the per-slot
     caches use, in a table safe from any domain, plus the factorisation
     table the per-job caches read through. Result arrays are written
     once by the solving engine and only read afterwards, so handing one
     array to several sessions is race-free. Sessions sharing a store
     MUST be numerically identical (same engine, transient step and
     mode) — the keys do not encode the config, the owner of the store
     does (the serve daemon keys stores per config family, and Flow skips
     the store on degraded retries). *)
  type key = Int64.t * float * float

  type t = {
    results : (key, (float * float) array) Cache.Shared.t;
    factored : (Int64.t * float, Transient.factored) Cache.Shared.t;
  }

  (* Per-request view: the shared store plus this request's own hit/miss
     counters (atomic — the parallel corner × transition slots of one
     session bump them from several domains). *)
  type handle = {
    store : t;
    h_hits : int Atomic.t;
    h_misses : int Atomic.t;
  }

  let create () =
    { results =
        Cache.Shared.create ~stripes:16 ~cap:262_144
          ~stripe_of:(fun (fp, _, _) -> Int64.to_int fp);
      factored =
        Cache.Shared.create ~stripes:16 ~cap:16_384
          ~stripe_of:(fun (fp, _) -> Int64.to_int fp) }

  let handle t = { store = t; h_hits = Atomic.make 0; h_misses = Atomic.make 0 }

  let find h key =
    let r = Cache.Shared.find h.store.results key in
    (match r with
    | Some _ -> Atomic.incr h.h_hits
    | None -> Atomic.incr h.h_misses);
    r

  let add h key v = Cache.Shared.add h.store.results key v
  let hits h = Atomic.get h.h_hits
  let misses h = Atomic.get h.h_misses
  let length t = Cache.Shared.length t.results
  let evictions t = Cache.Shared.evictions t.results

  let clear t =
    Cache.Shared.clear t.results;
    Cache.Shared.clear t.factored
end

module Incremental = struct
  (* One (corner × source transition) evaluation pass owns its own result
     cache, so its hits, misses and cache contents never depend on how the
     passes are scheduled. The key is the stage's content fingerprint
     plus the driver parameters — correctness does not depend on the tree
     revision counter, which is only a whole-result fast path. *)
  type slot = {
    s_corner : Tech.Corner.t;
    s_transition : transition;
    cache : (Store.key, (float * float) array) Cache.t;
    mutable hits : int;
    mutable misses : int;
  }

  (* The slots marched in lockstep over the stage pool — a corner's Rise
     and Fall for the boxed Spice kernel, which solves their shared
     misses as one two-lane sweep, one slot otherwise — and the kernel
     state they share. Workspaces are mutable scratch and the
     factorisation caches fill lazily (the adaptive kernel factors its
     coarse rates on first use), so each domain-parallel job owns its own
     — no locks, no races, scheduling-independent results. *)
  type job = {
    lanes : slot array;
    fcache : Transient.Fcache.t;  (* boxed kernel *)
    ffcache : Transient.Flat.Fcache.t;  (* streaming kernel *)
    wss : Transient.workspace array;  (* one per lane *)
  }

  type session = {
    engine : engine;
    flat : bool;
    seg_len : int option;
    parallel : bool;
    tstep : float option;
    tmode : Transient.mode option;
    (* Shared cross-session store this session reads through (and
       publishes to), or [None] for a self-contained session. *)
    store : Store.handle option;
    mutable tree : Tree.t;
    (* Every (corner × transition) slot, corner-major with Rise before
       Fall, grouped into the jobs that march them. *)
    jobs : job array;
    (* The arena snapshot and the stage pool the session last compiled
       (rebuilt when the session is rebound to a different tree). Every
       engine solves its stages out of the pool. *)
    mutable arena : Arena.t option;
    mutable pool : Rcflat.t option;
    (* Streaming-kernel scratch: a workspace for the serial prep phase
       and one workspace per domain for the chunked parallel solves
       (allocated lazily on the first parallel flat refresh). *)
    f_scratch : Transient.workspace;
    mutable f_ws : Transient.workspace array;
    mutable last : t option;
    mutable last_revision : int;
    mutable last_tree : Tree.t;
    mutable refreshes : int;
    mutable fast_refreshes : int;
    mutable dirty_refreshes : int;
    (* Stage maps for the dirty-set fast path. [c_stage_of] maps a tree
       node to the pool stage owning its parent wire and [c_driven] maps a
       driver node to the stage it drives. [anchor_rev] is the tree
       revision the pool describes, advanced by [note_edits] as journaled
       edits are reported; [pending] accumulates their touched nodes until
       the next refresh. Any unreported mutation breaks the chain and the
       next refresh falls back to a full extraction. *)
    mutable c_stage_of : int array;
    mutable c_driven : int array;
    mutable stages_tree : Tree.t;
    mutable anchor_rev : int;
    mutable pending : int list;
  }

  (* Slot-cache cap: generous enough that a full Flow run never reaches
     it, small enough to bound memory on pathological inputs.
     (Factorisation caches carry their own cap; see Transient.Fcache.) *)
  let cache_cap = 200_000

  let create ?(engine = Spice) ?(flat = false) ?seg_len ?(parallel = true)
      ?transient_step ?transient_mode ?store tree =
    (* [flat] only picks the kernel that marches a [Spice] stage; the
       model engines ignore it. *)
    let flat = flat && engine = Spice in
    let corners = (Tree.tech tree).Tech.corners in
    (* Per-job factorisation caches read through the store's shared
       factorisation table, so a repeat request re-solves its stages
       without re-factoring them even when the result store has turned
       the entries over. *)
    let factored = Option.map (fun h -> h.Store.store.Store.factored) store in
    let slot corner tr =
      { s_corner = corner; s_transition = tr;
        cache = Cache.create ~cap:cache_cap; hits = 0; misses = 0 }
    in
    let job lanes =
      { lanes; fcache = Transient.Fcache.create ?store:factored ();
        ffcache = Transient.Flat.Fcache.create ();
        wss = Array.map (fun _ -> Transient.workspace ()) lanes }
    in
    let jobs =
      Array.of_list
        (List.concat_map
           (fun corner ->
             let rise = slot corner Rise and fall = slot corner Fall in
             if engine = Spice && not flat then [ job [| rise; fall |] ]
             else [ job [| rise |]; job [| fall |] ])
           corners)
    in
    { engine; flat; seg_len; parallel; tstep = transient_step;
      tmode = transient_mode; store; tree; jobs; arena = None; pool = None;
      f_scratch = Transient.workspace (); f_ws = [||]; last = None;
      last_revision = -1; last_tree = tree; refreshes = 0; fast_refreshes = 0;
      dirty_refreshes = 0; c_stage_of = [||]; c_driven = [||];
      stages_tree = tree; anchor_rev = -1; pending = [] }

  (* One engine solve of pool stage [si] for lane [l] of [job]. Only the
     streaming kernel reads the pool slice itself; the boxed kernel and
     the model engines solve a boxed copy of the stage, which equals the
     reference extraction bit for bit. *)
  let solve_stage session job l pool si ~r_drv ~s_drv =
    match session.engine with
    | Spice when session.flat ->
      Transient.Flat.solve ?step:session.tstep ?mode:session.tmode
        ~fcache:job.ffcache ~ws:job.wss.(l) pool ~si ~r_drv ~s_drv
    | Spice ->
      Transient.solve ?step:session.tstep ?mode:session.tmode
        ~fcache:job.fcache ~fp:pool.Rcflat.fp.(si) ~ws:job.wss.(l)
        (Rcflat.stage_rc pool si) ~r_drv ~s_drv
    | Arnoldi ->
      (* Newton-polished crossings: same roots as [Moments.solve] to
         ~1e-12 ps at a fraction of the cost (see moments.mli). *)
      Moments.solve_fast (Rcflat.stage_rc pool si) ~r_drv ~s_drv
    | Elmore_model -> Elmore.solve (Rcflat.stage_rc pool si) ~r_drv ~s_drv

  (* A slot's cached result for [key]: the slot cache first, then — on a
     local miss — the shared store, since another request may already
     have solved this exact stage. [None] leaves the solve to the
     caller, which then [commit]s the result. *)
  let lookup session slot key =
    match Cache.find slot.cache key with
    | Some _ as hit ->
      slot.hits <- slot.hits + 1;
      hit
    | None ->
      slot.misses <- slot.misses + 1;
      let shared = Option.bind session.store (fun h -> Store.find h key) in
      Option.iter (Cache.add slot.cache key) shared;
      shared

  let commit session slot key r =
    Option.iter (fun h -> Store.add h key r) session.store;
    Cache.add slot.cache key r

  (* March [job]'s lanes over the pool in lockstep, stage by stage. Each
     slot sees exactly the cache, store and engine traffic of its own
     sequential pass, in the same order; only a stage both lanes miss
     is solved as one pair. When the two keys coincide under a shared
     store the lanes stay sequential, because the second lane's store
     lookup would have found the first lane's result. *)
  let run_job session arena pool job =
    let tech = Tree.tech session.tree in
    let states =
      Array.map (fun s -> pstate_make session.tree s.s_transition) job.lanes
    in
    let fp = pool.Rcflat.fp in
    let solve l si ~r_drv ~s_drv =
      let r = solve_stage session job l pool si ~r_drv ~s_drv in
      commit session job.lanes.(l) (fp.(si), r_drv, s_drv) r;
      r
    in
    let resolve l si ~r_drv ~s_drv =
      match lookup session job.lanes.(l) (fp.(si), r_drv, s_drv) with
      | Some r -> r
      | None -> solve l si ~r_drv ~s_drv
    in
    for si = 0 to pool.Rcflat.nstages - 1 do
      if Array.length job.lanes = 1 then begin
        let st = states.(0) and slot = job.lanes.(0) in
        let driver, tr, r_drv, s_drv =
          stage_drive tech arena pool slot.s_corner st si
        in
        pstate_apply arena pool slot.s_corner st si ~driver ~tr
          (resolve 0 si ~r_drv ~s_drv)
      end
      else begin
        let sa = job.lanes.(0) and sb = job.lanes.(1) in
        let sta = states.(0) and stb = states.(1) in
        let da, tra, ra, ha = stage_drive tech arena pool sa.s_corner sta si in
        let db, trb, rb, hb = stage_drive tech arena pool sb.s_corner stb si in
        let ka = (fp.(si), ra, ha) and kb = (fp.(si), rb, hb) in
        let res_a, res_b =
          match lookup session sa ka with
          | Some r -> (r, resolve 1 si ~r_drv:rb ~s_drv:hb)
          | None when Option.is_some session.store && compare ka kb = 0 ->
            let r = solve 0 si ~r_drv:ra ~s_drv:ha in
            (r, resolve 1 si ~r_drv:rb ~s_drv:hb)
          | None -> (
            match lookup session sb kb with
            | Some r_b -> (solve 0 si ~r_drv:ra ~s_drv:ha, r_b)
            | None ->
              let r_a, r_b =
                Transient.solve_pair ?step:session.tstep ?mode:session.tmode
                  ~fcache:job.fcache ~fp:fp.(si)
                  ~ws:(job.wss.(0), job.wss.(1))
                  (Rcflat.stage_rc pool si) ~r_drv:(ra, rb) ~s_drv:(ha, hb)
              in
              commit session sa ka r_a;
              commit session sb kb r_b;
              (r_a, r_b))
        in
        pstate_apply arena pool sa.s_corner sta si ~driver:da ~tr:tra res_a;
        pstate_apply arena pool sb.s_corner stb si ~driver:db ~tr:trb res_b
      end
    done;
    Array.map2 (fun st s -> pstate_run st s.s_corner s.s_transition) states
      job.lanes

  (* One pending flat solve of the level-batched refresh: which slot and
     stage it serves, its drive key, the pre-resolved march state, and
     the cell the chunk worker drops the result into. *)
  type fjob = {
    j_slot : int;
    j_si : int;
    j_r : float;
    j_s : float;
    j_prepped : Transient.Flat.prepped;
    j_out : (float * float) array option ref;
  }

  (* Level-batched parallel flat refresh. Stages within one DAG level
     share no launch dependency, and the pool stores a level as a
     contiguous stage-index range — so the fan-out unit is an index
     range, not a per-stage closure. Per level: every slot's cache
     misses are gathered and prepped serially (preps touch the shared
     per-job factorisation caches), the job array is cut into at most
     one contiguous chunk per workspace, the chunks march on the domain
     pool with no shared mutable state, and the results are committed
     and the tap/launch state advanced serially in stage order. Hits,
     misses, cache contents and every reported float match the
     sequential pass exactly. *)
  let run_all_flat session arena pool =
    if Array.length session.f_ws = 0 then
      session.f_ws <-
        Array.init
          (Domain_pool.size (Domain_pool.global ()) + 1)
          (fun _ -> Transient.workspace ());
    let tech = Tree.tech session.tree in
    (* Flat jobs are single-lane: job k serves slot k. *)
    let jobs = session.jobs in
    let nslots = Array.length jobs in
    let states =
      Array.map (fun j -> pstate_make session.tree j.lanes.(0).s_transition)
        jobs
    in
    let level_res : (float * float) array option ref array array =
      Array.make nslots [||]
    in
    let level_tr = Array.make nslots [||] in
    let level_drv = Array.make nslots [||] in
    for l = 0 to pool.Rcflat.nlevels - 1 do
      let lo = pool.Rcflat.level_off.(l) in
      let hi = pool.Rcflat.level_off.(l + 1) in
      let w = hi - lo in
      let todo = ref [] in
      for k = 0 to nslots - 1 do
        let slot = jobs.(k).lanes.(0) in
        let st = states.(k) in
        let res = Array.make w (ref None) in
        let trs = Array.make w slot.s_transition in
        let drvs = Array.make w (-1) in
        (* Within-level dedup: first occurrence of a missing key becomes
           the job, later occurrences share its output cell and count as
           the cache hits they would be sequentially. *)
        let local = Hashtbl.create ((2 * w) + 1) in
        for si = lo to hi - 1 do
          let driver, tr, r_drv, s_drv =
            stage_drive tech arena pool slot.s_corner st si
          in
          let key = (pool.Rcflat.fp.(si), r_drv, s_drv) in
          let out =
            match Hashtbl.find_opt local key with
            | Some cell ->
              slot.hits <- slot.hits + 1;
              cell
            | None ->
              (* A shared-store hit is committed to the slot cache right
                 away, so later levels hit it like any other. *)
              let cell = ref (lookup session slot key) in
              Hashtbl.add local key cell;
              if Option.is_none !cell then begin
                let prepped =
                  Transient.Flat.prep ?step:session.tstep ?mode:session.tmode
                    ~fcache:jobs.(k).ffcache ~scratch:session.f_scratch pool
                    ~si ~r_drv
                in
                todo :=
                  { j_slot = k; j_si = si; j_r = r_drv; j_s = s_drv;
                    j_prepped = prepped; j_out = cell }
                  :: !todo
              end;
              cell
          in
          res.(si - lo) <- out;
          trs.(si - lo) <- tr;
          drvs.(si - lo) <- driver
        done;
        level_res.(k) <- res;
        level_tr.(k) <- trs;
        level_drv.(k) <- drvs
      done;
      (match !todo with
      | [] -> ()
      | js ->
        let arr = Array.of_list (List.rev js) in
        let nj = Array.length arr in
        let nchunks = Int.min (Array.length session.f_ws) nj in
        let per = nj / nchunks and extra = nj mod nchunks in
        let chunks =
          Array.init nchunks (fun c ->
              let start = (c * per) + Int.min c extra in
              let stop = start + per + (if c < extra then 1 else 0) in
              (c, start, stop))
        in
        ignore
          (Domain_pool.map (Domain_pool.global ())
             (fun (c, start, stop) ->
               let ws = session.f_ws.(c) in
               for i = start to stop - 1 do
                 let j = arr.(i) in
                 j.j_out :=
                   Some
                     (Transient.Flat.solve_prepped ?step:session.tstep ~ws
                        pool ~si:j.j_si ~prepped:j.j_prepped ~r_drv:j.j_r
                        ~s_drv:j.j_s)
               done)
             chunks);
        Array.iter
          (fun j ->
            let slot = jobs.(j.j_slot).lanes.(0) in
            let key = (pool.Rcflat.fp.(j.j_si), j.j_r, j.j_s) in
            commit session slot key (Option.get !(j.j_out)))
          arr);
      for k = 0 to nslots - 1 do
        let slot = jobs.(k).lanes.(0) in
        let st = states.(k) in
        for si = lo to hi - 1 do
          let results = Option.get !(level_res.(k).(si - lo)) in
          pstate_apply arena pool slot.s_corner st si
            ~driver:level_drv.(k).(si - lo)
            ~tr:level_tr.(k).(si - lo)
            results
        done
      done
    done;
    let runs =
      Array.to_list
        (Array.map2
           (fun j st ->
             pstate_run st j.lanes.(0).s_corner j.lanes.(0).s_transition)
           jobs states)
    in
    summarize session.tree runs

  (* A parallel refresh batches the streaming kernel's solves level by
     level; the other engines fan the whole jobs out instead. *)
  let run_all session =
    let arena = Option.get session.arena and pool = Option.get session.pool in
    let fan_out = session.parallel && Array.length session.jobs > 1 in
    if fan_out && session.flat then run_all_flat session arena pool
    else
      let runs =
        if fan_out then
          Domain_pool.map (Domain_pool.global ())
            (run_job session arena pool)
            session.jobs
        else Array.map (run_job session arena pool) session.jobs
      in
      summarize session.tree
        (List.concat_map Array.to_list (Array.to_list runs))

  (* Node → stage maps for the dirty fast path: a stage is dirtied when
     a node whose parent wire it contains (or a buffer whose drive it
     provides) is edited. Unreachable (detached) nodes keep -1, which
     forces any edit touching them back to a full extraction. *)
  let stage_maps tree ~nstages ~driver_of =
    let n = Tree.size tree in
    let stage_of = Array.make n (-1) in
    let driven = Array.make n (-1) in
    for si = 0 to nstages - 1 do
      driven.(driver_of si) <- si
    done;
    Array.iter
      (fun id ->
        let nd = Tree.node tree id in
        if nd.Tree.parent >= 0 then
          stage_of.(id) <-
            (if driven.(nd.Tree.parent) >= 0 then driven.(nd.Tree.parent)
             else stage_of.(nd.Tree.parent)))
      (Tree.topo_order tree);
    (stage_of, driven)

  let full_refresh session =
    let tree = session.tree in
    let arena =
      match session.arena with
      | Some a when Arena.tree a == tree ->
        Arena.sync a;
        a
      | Some a ->
        (* Rebound to a different tree: recompile in place; the pool
           below re-extracts from the same arena. *)
        Arena.rebind a tree;
        a
      | None ->
        let a = Arena.compile tree in
        session.arena <- Some a;
        a
    in
    let pool =
      match session.pool with
      | Some p ->
        Rcflat.recompile p;
        p
      | None ->
        let p = Rcflat.compile ?seg_len:session.seg_len arena in
        session.pool <- Some p;
        p
    in
    let stage_of, driven =
      stage_maps tree ~nstages:pool.Rcflat.nstages ~driver_of:(fun si ->
          pool.Rcflat.driver.(si))
    in
    session.c_stage_of <- stage_of;
    session.c_driven <- driven;
    session.stages_tree <- tree;
    session.anchor_rev <- Tree.revision tree;
    session.pending <- [];
    run_all session

  (* Which stage indices does the accumulated dirty set cover? [None]
     means the hint chain cannot be trusted (broken anchor, unmapped
     node, tree rebound or resized) and a full extraction is needed. *)
  let dirty_plan session ~edits ~rev =
    if
      session.stages_tree != session.tree
      || session.anchor_rev < 0
      || Array.length session.c_stage_of <> Tree.size session.tree
    then None
    else
      let nodes =
        match edits with
        | Some e ->
          if e.base_revision = session.anchor_rev then
            Some (List.rev_append e.nodes session.pending)
          else None
        | None -> if session.anchor_rev = rev then Some session.pending else None
      in
      match nodes with
      | None -> None
      | Some nodes ->
        let ids = List.sort_uniq compare nodes in
        let rec go acc = function
          | [] -> Some (ids, List.sort_uniq compare acc)
          | id :: rest ->
            if id < 0 || id >= Tree.size session.tree then None
            else
              let si = session.c_stage_of.(id) in
              if si < 0 then None
              else begin
                match (Tree.node session.tree id).Tree.kind with
                | Tree.Buffer _ ->
                  (* A rescaled buffer changes its input cap (upstream
                     stage) and its drive (the stage it owns). *)
                  let di = session.c_driven.(id) in
                  if di < 0 then None else go (di :: si :: acc) rest
                | _ -> go (si :: acc) rest
              end
        in
        go [] ids

  (* Re-extract only the dirty stages; every slot then re-propagates over
     the pool, hitting its solve cache on the clean stages (the
     downstream-latency cone is handled by the propagation itself —
     arrival chaining is recomputed for free, only dirty-stage solves
     miss). Dirty hints come from value-only journals (size and stage set
     unchanged), so patching the touched arena nodes and re-extracting
     the dirty stages in place is exact. *)
  let dirty_refresh session ids dirty rev =
    session.dirty_refreshes <- session.dirty_refreshes + 1;
    let pool = Option.get session.pool in
    Arena.sync ~touched:ids (Option.get session.arena);
    List.iter (Rcflat.update_stage pool) dirty;
    session.anchor_rev <- rev;
    session.pending <- [];
    run_all session

  let refresh ?tree ?edits session =
    (match tree with Some t -> session.tree <- t | None -> ());
    Atomic.incr counter;
    session.refreshes <- session.refreshes + 1;
    let rev = Tree.revision session.tree in
    match session.last with
    | Some res when session.last_tree == session.tree && session.last_revision = rev ->
      session.fast_refreshes <- session.fast_refreshes + 1;
      res
    | _ ->
      let res =
        match dirty_plan session ~edits ~rev with
        | Some (ids, dirty) -> dirty_refresh session ids dirty rev
        | None -> full_refresh session
      in
      session.last <- Some res;
      session.last_revision <- Tree.revision session.tree;
      session.last_tree <- session.tree;
      res

  let note_edits session ~edits ~new_revision =
    match edits with
    | Some e
      when session.stages_tree == session.tree
           && session.anchor_rev >= 0
           && e.base_revision = session.anchor_rev ->
      session.pending <- List.rev_append e.nodes session.pending;
      session.anchor_rev <- new_revision
    | _ ->
      (* Unreported or unanchored mutation: the next refresh must
         re-extract everything. *)
      session.anchor_rev <- -1;
      session.pending <- []

  let stats session =
    let slots =
      Array.concat (List.map (fun j -> j.lanes) (Array.to_list session.jobs))
    in
    let hits = Array.fold_left (fun a s -> a + s.hits) 0 slots in
    let misses = Array.fold_left (fun a s -> a + s.misses) 0 slots in
    let entries =
      Array.fold_left (fun a s -> a + Cache.length s.cache) 0 slots
    in
    let factored_entries =
      Array.fold_left
        (fun a j ->
          a + Transient.Fcache.length j.fcache
          + Transient.Flat.Fcache.length j.ffcache)
        0 session.jobs
    in
    let store_hits, store_misses =
      match session.store with
      | Some h -> (Store.hits h, Store.misses h)
      | None -> (0, 0)
    in
    { hits; misses; refreshes = session.refreshes;
      fast_refreshes = session.fast_refreshes;
      dirty_refreshes = session.dirty_refreshes; entries; factored_entries;
      store_hits; store_misses }
end

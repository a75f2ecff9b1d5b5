(* Backward Euler on the MNA of an RC tree:
     (C/h + G) v_{t+h} = (C/h) v_t + i_src(t+h)
   where G is the conductance Laplacian of the tree edges plus the driver
   conductance at the root. Because the matrix is tree-structured and
   constant, a single leaf-elimination factorisation is computed up front
   and every step costs two O(n) sweeps. Conductances are in 1/Ω, caps in
   fF, time in ps: i = C dv/dt gives (fF/ps) · V = mA·10⁻³... all terms are
   scaled consistently by expressing capacitance as cap·1e-3 fF/ps units
   (Ω·fF = 10⁻³ ps).

   The driver conductance 1/r_drv appears only in the root's diagonal
   entry, and the leaf elimination (children before parents) never reads
   the root diagonal while eliminating. The factorisation below therefore
   excludes the driver term entirely: the effective root diagonal is
   reconstructed as [dfact.(0) +. g0] at solve time, which lets one
   factorisation be shared across arbitrary driver resistances.

   Stepping controller (the adaptive modes). A fixed fine march spends
   most of its steps where nothing observable happens: the input ramp is
   over within a few ps, and each watched node only needs fine resolution
   inside the windows that contain its 10/50/90 % crossings. The adaptive
   march therefore:

     1. fine-steps through the driver ramp plus four coarse windows (the
        input kink and the fast modes it excites live here);
     2. runs THREE coarse backward-Euler marches in lockstep, with steps
        a = mult·h, b = a/2 and c = a/4, from the shared fine state.
        Backward Euler's global error has an asymptotic expansion in
        powers of the step size, so at every coarse boundary the three
        states are extrapolated in the step down to the fine step h by
        the quadratic Lagrange fit through (a, v_a), (b, v_b), (c, v_c).
        The extrapolated state tracks the fixed-fine-step march to
        O(a·b·c) — not merely the exact solution, which the fine march
        itself misses by O(h);
     3. scans only the live frontier of watched nodes at each boundary.
        When an extrapolated value brackets a pending threshold, the
        window is rewound: the full extrapolated entry state is rebuilt
        and the window re-integrated at the fine step, firing crossings
        exactly like the reference march. All coarse marches restart
        from the fine exit state.

   Crossing-time agreement with the fixed-fine reference is set by the
   extrapolation residual. For a single pole τ the backward-Euler march
   at step h follows exp with effective constant τ_eff = h/ln(1+h/τ)
   = τ·(1 + x/2 − x²/12 + x³/24 − …), x = h/τ; the quadratic fit
   cancels the x and x² terms, leaving a slew residual
   ≈ ln 9·(a·b·c)/(24·τ²) ≈ 0.011·a³/τ² ps. The Auto controller picks
   a ≈ 0.8·τ^⅔ (both in ps), keeping that residual ≈ 0.006 ps — an
   order under the documented 0.05 ps tolerance — while a quiet window
   costs 7 solves instead of mult, saving ~mult/7 outside crossing
   windows. *)

type factored = {
  g : float array;      (* edge conductance to parent; g.(0) unused (0.) *)
  dfact : float array;  (* factored diagonal, WITHOUT the driver term at 0 *)
  c_over_h : float array;
  h : float;            (* the timestep the factorisation assumed *)
}

let default_step = 0.5

let factor ?(step = default_step) (rc : Rcnet.t) =
  let n = rc.size in
  let g = Array.make n 0. in
  for i = 1 to n - 1 do
    (* Zero-length wires can produce 0 Ω segments; clamp for stability. *)
    g.(i) <- 1. /. Float.max rc.res.(i) 1e-6
  done;
  let c_over_h = Array.map (fun c -> c *. Tech.Units.rc_to_ps /. step) rc.cap in
  let dfact = Array.make n 0. in
  for i = 0 to n - 1 do
    dfact.(i) <- c_over_h.(i) +. g.(i)
  done;
  (* Children contribute g to their parent's diagonal. *)
  for i = 1 to n - 1 do
    dfact.(rc.parent.(i)) <- dfact.(rc.parent.(i)) +. g.(i)
  done;
  (* Leaf elimination, children before parents (indices are topological). *)
  for i = n - 1 downto 1 do
    let p = rc.parent.(i) in
    dfact.(p) <- dfact.(p) -. (g.(i) *. g.(i) /. dfact.(i))
  done;
  { g; dfact; c_over_h; h = step }

(* One implicit step from state [vin] to state [vout] (they may alias):
   source voltage vs at t+h, driver conductance g0 = 1/r_drv. [vin] is
   only read by the forward sweep, so in-place stepping is safe. *)
let step_solve (rc : Rcnet.t) f ~g0 ~vs ~vin ~vout ~r =
  let n = rc.size in
  for i = 0 to n - 1 do
    r.(i) <- f.c_over_h.(i) *. vin.(i)
  done;
  r.(0) <- r.(0) +. (g0 *. vs);
  for i = n - 1 downto 1 do
    let p = rc.parent.(i) in
    r.(p) <- r.(p) +. (f.g.(i) /. f.dfact.(i) *. r.(i))
  done;
  vout.(0) <- r.(0) /. (f.dfact.(0) +. g0);
  for i = 1 to n - 1 do
    vout.(i) <- (r.(i) +. (f.g.(i) *. vout.(rc.parent.(i)))) /. f.dfact.(i)
  done

(* Two independent lanes of [step_solve] over one factorisation: lane a
   steps [ina] to [outa] (driver g0a, source vsa, residual [ra]) and lane
   b steps [inb] to [outb]; each lane's pair may alias, as in
   [step_solve]. Each lane performs exactly [step_solve]'s float
   operations in its order — the shared g/dfact quotient is the value
   [step_solve] computes per node — so each state is bit-identical to its
   own single-lane march. The lanes' dependency chains are independent,
   so the core overlaps them (and their backward-sweep divisions) instead
   of idling on one chain, and the i → i−1 parent hop of a wire's chain
   reads the value just computed from a register instead of reloading
   it. Unchecked accesses: the caller guarantees [parent.(i) < i] and
   arrays of at least [rc.size] (see [solve_pair]). [step_solve] itself
   stays the single-lane reference the flat kernel is measured
   against. *)
let step_solve2 (rc : Rcnet.t) f ~g0a ~vsa ~ina ~outa ~ra ~g0b ~vsb ~inb
    ~outb ~rb =
  let open Array in
  let n = rc.size in
  let parent = rc.parent and coh = f.c_over_h and g = f.g
  and dfact = f.dfact in
  for i = 0 to n - 1 do
    let c = unsafe_get coh i in
    unsafe_set ra i (c *. unsafe_get ina i);
    unsafe_set rb i (c *. unsafe_get inb i)
  done;
  ra.(0) <- ra.(0) +. (g0a *. vsa);
  rb.(0) <- rb.(0) +. (g0b *. vsb);
  (* [xa]/[xb] hold the residuals just accumulated into node [last]. *)
  let xa = ref 0. and xb = ref 0. and last = ref (-1) in
  for i = n - 1 downto 1 do
    let p = unsafe_get parent i in
    let q = unsafe_get g i /. unsafe_get dfact i in
    let rai = if !last = i then !xa else unsafe_get ra i in
    let rbi = if !last = i then !xb else unsafe_get rb i in
    let a = unsafe_get ra p +. (q *. rai) in
    let b = unsafe_get rb p +. (q *. rbi) in
    unsafe_set ra p a;
    unsafe_set rb p b;
    xa := a;
    xb := b;
    last := p
  done;
  (* [ya]/[yb] hold the voltages just solved at node i−1. *)
  let ya = ref (ra.(0) /. (dfact.(0) +. g0a)) in
  let yb = ref (rb.(0) /. (dfact.(0) +. g0b)) in
  outa.(0) <- !ya;
  outb.(0) <- !yb;
  for i = 1 to n - 1 do
    let p = unsafe_get parent i in
    let gi = unsafe_get g i and di = unsafe_get dfact i in
    let vpa = if p = i - 1 then !ya else unsafe_get outa p in
    let vpb = if p = i - 1 then !yb else unsafe_get outb p in
    let a = (unsafe_get ra i +. (gi *. vpa)) /. di in
    let b = (unsafe_get rb i +. (gi *. vpb)) /. di in
    unsafe_set outa i a;
    unsafe_set outb i b;
    ya := a;
    yb := b
  done

let ramp_voltage ~ramp t = if t <= 0. then 0. else if t >= ramp then 1. else t /. ramp

let default_max_steps = 2_000_000

let thresholds = [| 0.1; 0.5; 0.9 |]

(* ------------------------------------------------------------------ *)
(* Workspace                                                           *)
(* ------------------------------------------------------------------ *)

type workspace = {
  mutable cap_n : int;          (* capacity of the node-sized arrays *)
  mutable v : float array;      (* fine-march state *)
  mutable r : float array;      (* solve residual *)
  mutable va0 : float array;    (* a-march: window entry / exit (swapped) *)
  mutable va1 : float array;
  mutable vb0 : float array;    (* b-march: entry / exit *)
  mutable vb1 : float array;
  mutable vc0 : float array;    (* c-march: entry / exit *)
  mutable vc1 : float array;
  mutable cap_w : int;          (* capacity of the watch-sized arrays *)
  mutable prev : float array;   (* last scanned value per watch slot *)
  mutable nextk : int array;    (* next pending threshold per watch slot *)
  mutable live : int array;     (* compact frontier of uncrossed slots *)
}

let workspace () =
  { cap_n = 0; v = [||]; r = [||]; va0 = [||]; va1 = [||]; vb0 = [||];
    vb1 = [||]; vc0 = [||]; vc1 = [||]; cap_w = 0; prev = [||];
    nextk = [||]; live = [||] }

(* One lazily-created workspace per domain — the fallback when a caller
   passes no [?ws], so ad-hoc solves on a pool worker (the regional
   flow's per-region extractions, one-off probes) reuse the grown state
   arrays across calls instead of reallocating them. *)
let domain_workspace_key = Domain.DLS.new_key workspace
let domain_workspace () = Domain.DLS.get domain_workspace_key

let grow ws ~n ~w =
  if ws.cap_n < n then begin
    let c = Int.max n (Int.max 64 (2 * ws.cap_n)) in
    ws.v <- Array.make c 0.;
    ws.r <- Array.make c 0.;
    ws.va0 <- Array.make c 0.;
    ws.va1 <- Array.make c 0.;
    ws.vb0 <- Array.make c 0.;
    ws.vb1 <- Array.make c 0.;
    ws.vc0 <- Array.make c 0.;
    ws.vc1 <- Array.make c 0.;
    ws.cap_n <- c
  end;
  if ws.cap_w < w then begin
    let c = Int.max w (Int.max 16 (2 * ws.cap_w)) in
    ws.prev <- Array.make c 0.;
    ws.nextk <- Array.make c 0;
    ws.live <- Array.make c 0;
    ws.cap_w <- c
  end

(* ------------------------------------------------------------------ *)
(* Factorisation cache                                                 *)
(* ------------------------------------------------------------------ *)

module Fcache = struct
  type key = int64 * float

  type t = {
    local : (key, factored) Cache.t;
    store : (key, factored) Cache.Shared.t option;
  }

  let create ?(cap = 4096) ?store () = { local = Cache.create ~cap; store }

  let get c ?fp rc ~step =
    let fp = match fp with Some f -> f | None -> Rcnet.fingerprint rc in
    let key = (fp, step) in
    match Cache.find c.local key with
    | Some f -> f
    | None ->
      (* A cached factor is bit-identical to a recomputed one, so the
         shared store changes wall-clock only, never numerics. *)
      let f =
        match Option.bind c.store (fun s -> Cache.Shared.find s key) with
        | Some f -> f
        | None ->
          let f = factor ~step rc in
          Option.iter (fun s -> Cache.Shared.add s key f) c.store;
          f
      in
      Cache.add c.local key f;
      f

  let length c = Cache.length c.local
  let clear c = Cache.clear c.local
end

(* Steps composed arithmetically (mult *. step /. mult, corner scaling…)
   may differ from the factorisation's in the last bits; accept them
   within a relative epsilon instead of tripping on exact inequality. *)
let step_matches f step =
  Float.abs (f.h -. step) <= 1e-9 *. Float.max (Float.abs f.h) (Float.abs step)

let get_factored ?factored ?fcache ?fp ~step rc =
  match factored with
  | Some f ->
    if not (step_matches f step) then
      invalid_arg "Transient: factored timestep mismatch";
    f
  | None -> (
    match fcache with
    | Some c -> Fcache.get c ?fp rc ~step
    | None -> factor ~step rc)

(* ------------------------------------------------------------------ *)
(* Stepping controller                                                 *)
(* ------------------------------------------------------------------ *)

type mode =
  | Fixed
  | Adaptive of { mult : int }
  | Auto of { max_mult : int }

let default_mode = Auto { max_mult = 32 }

(* Coarse window target a ≈ coeff·τ^⅔ keeps the extrapolation residual
   ≈ 0.011·coeff³ ps regardless of τ (see the header note); 0.8 leaves
   an order of magnitude under the 0.05 ps tolerance for multi-pole
   stages whose residual constants exceed the single-pole estimate. *)
let auto_window_coeff = 0.8

(* Smallest watched first moment (≈ the fastest tap's dominant time
   constant, driver included), using caller scratch to stay
   allocation-free. *)
let stage_tau (rc : Rcnet.t) ~r_drv ~watch ~down ~m =
  let n = rc.size in
  Array.blit rc.cap 0 down 0 n;
  for i = n - 1 downto 1 do
    down.(rc.parent.(i)) <- down.(rc.parent.(i)) +. down.(i)
  done;
  m.(0) <- Tech.Units.ps_of_rc r_drv down.(0);
  for i = 1 to n - 1 do
    m.(i) <- m.(rc.parent.(i)) +. Tech.Units.ps_of_rc rc.res.(i) down.(i)
  done;
  let tau = ref infinity in
  Array.iter (fun wi -> if m.(wi) < !tau then tau := m.(wi)) watch;
  if Float.is_finite !tau then !tau else 0.

(* Window-size selection from the watched time constant — shared by the
   boxed and flat kernels so the same stage always gets the same rate. *)
let mult_of_tau ~tau ~step ~max_mult =
  let target =
    auto_window_coeff *. Float.pow (Float.max tau 0.) (2. /. 3.) /. step
  in
  let cap = Int.max 2 (2 * (max_mult / 2)) in
  let mult =
    if Float.is_finite target then Int.min (int_of_float target) cap else cap
  in
  (* Below 12 the 7-solve window overhead eats the saving. *)
  if mult < 12 then 1 else 2 * (mult / 2)

let resolve_mult mode (rc : Rcnet.t) ~r_drv ~watch ~step ~down ~m =
  match mode with
  | Fixed -> 1
  | Adaptive { mult } -> if mult < 2 then 1 else 2 * (mult / 2)
  | Auto { max_mult } ->
    if Array.length watch = 0 then 1
    else
      let tau = stage_tau rc ~r_drv ~watch ~down ~m in
      mult_of_tau ~tau ~step ~max_mult

let march_rate ?(step = default_step) ?(mode = default_mode) (rc : Rcnet.t)
    ~r_drv =
  let n = Int.max rc.size 1 in
  resolve_mult mode rc ~r_drv ~watch:(Array.map fst rc.taps) ~step
    ~down:(Array.make n 0.) ~m:(Array.make n 0.)

(* ------------------------------------------------------------------ *)
(* Cross-call telemetry                                                *)
(* ------------------------------------------------------------------ *)

type march = { solves : int; fine_equiv : int; truncated : bool }

type counters = {
  total_solves : int;
  total_saved : int;
  total_truncations : int;
}

let solves_ctr = Atomic.make 0
let saved_ctr = Atomic.make 0
let trunc_ctr = Atomic.make 0

let counters () =
  { total_solves = Atomic.get solves_ctr;
    total_saved = Atomic.get saved_ctr;
    total_truncations = Atomic.get trunc_ctr }

(* ------------------------------------------------------------------ *)
(* The march                                                           *)
(* ------------------------------------------------------------------ *)

(* Crossing bookkeeping of one march: the watched nodes' live frontier,
   scanned against the fine-march state [lv] after every fine step. A
   slot leaves the frontier once all three thresholds have fired through
   [lon_cross (watch_slot, threshold_index, time)]. *)
type lane = {
  lv : float array;
  lwatch : int array;
  lon_cross : int -> int -> float -> unit;
  lprev : float array;  (* last scanned value per watch slot *)
  lnextk : int array;   (* next pending threshold per watch slot *)
  llive : int array;    (* compact frontier of uncrossed slots *)
  mutable nlive : int;
  mutable remaining : int;  (* crossings still to fire *)
}

(* A lane over [ws]'s fine state and watch arrays, zeroed for a march
   from rest; [ws] must already be grown to [n] nodes and the watch. *)
let lane_start ws ~n ~watch ~on_cross =
  let nwatch = Array.length watch in
  Array.fill ws.v 0 n 0.;
  for w0 = 0 to nwatch - 1 do
    ws.prev.(w0) <- 0.;
    ws.nextk.(w0) <- 0;
    ws.live.(w0) <- w0
  done;
  { lv = ws.v; lwatch = watch; lon_cross = on_cross; lprev = ws.prev;
    lnextk = ws.nextk; llive = ws.live; nlive = nwatch;
    remaining = nwatch * 3 }

(* Scan the live frontier against [lv] after a fine step t0 → t0+h;
   nodes with all three thresholds crossed leave the frontier. *)
let scan ln ~t0 ~h =
  let v = ln.lv and watch = ln.lwatch and prev = ln.lprev
  and nextk = ln.lnextk and live = ln.llive in
  let idx = ref 0 in
  while !idx < ln.nlive do
    let w0 = live.(!idx) in
    let vw = v.(watch.(w0)) in
    let k = ref nextk.(w0) in
    while !k < 3 && vw >= thresholds.(!k) do
      (* Linear interpolation inside the step. *)
      let frac =
        if vw -. prev.(w0) <= 0. then 1.
        else (thresholds.(!k) -. prev.(w0)) /. (vw -. prev.(w0))
      in
      ln.lon_cross w0 !k (t0 +. (frac *. h));
      ln.remaining <- ln.remaining - 1;
      incr k
    done;
    nextk.(w0) <- !k;
    if !k > 2 then begin
      ln.nlive <- ln.nlive - 1;
      live.(!idx) <- live.(ln.nlive);
      live.(ln.nlive) <- w0
    end
    else begin
      prev.(w0) <- vw;
      incr idx
    end
  done

(* Publish one finished march to the cross-call counters. *)
let record_march ~solves ~fine_equiv ~truncated =
  ignore (Atomic.fetch_and_add solves_ctr solves);
  ignore (Atomic.fetch_and_add saved_ctr (fine_equiv - solves));
  if truncated then Atomic.incr trunc_ctr;
  { solves; fine_equiv; truncated }

(* The three-rate march controller, generic over the per-step kernel:
   [fine] is the fine-step factorisation, [rate stp] produces (or looks
   up) a coarse-rate one, and [solve f ~vs ~vin ~vout] advances one
   implicit step — the driver conductance and the residual scratch are
   captured inside the closure. The closure dispatch costs one indirect
   call per *step* (the per-node work stays inside [solve]), so the boxed
   and flat kernels share every line of controller logic — lead-in,
   Lagrange extrapolation, bracket/rewind, truncation accounting — and
   cannot drift apart. *)
let march_core ~step ~mult ~fine ~rate ~solve ~ws ~n ~ramp ~watch ~on_cross
    ~max_steps =
  (* [watch] : rc node indices to monitor; [on_cross] called with
     (watch_slot, threshold_index, time). Thresholds are 0.1, 0.5, 0.9. *)
  begin
    let ln = lane_start ws ~n ~watch ~on_cross in
    let v = ln.lv and prev = ln.lprev and nextk = ln.lnextk
    and live = ln.llive in
    let solves = ref 0 in
    let fine_equiv = ref 0 in
    let truncated = ref false in
    let t = ref 0. in
    (* Up to [budget] fine steps from the current state; accounted in
       both [solves] and [fine_equiv]. *)
    let fine_steps budget =
      let taken = ref 0 in
      while ln.remaining > 0 && !taken < budget do
        incr taken;
        incr solves;
        let t1 = !t +. step in
        solve fine ~vs:(ramp_voltage ~ramp t1) ~vin:v ~vout:v;
        scan ln ~t0:!t ~h:step;
        t := t1
      done;
      fine_equiv := !fine_equiv + !taken
    in
    if mult <= 1 then begin
      fine_steps max_steps;
      truncated := ln.remaining > 0
    end
    else begin
      let step_a = step *. float_of_int mult in
      let step_b = step_a /. 2. in
      let step_c = step_a /. 4. in
      let fa = rate step_a and fb = rate step_b and fc = rate step_c in
      (* Quadratic Lagrange extrapolation in the step size, evaluated at
         the fine step: v̂ = wa·v_a + wb·v_b + wc·v_c. *)
      let wa =
        (step -. step_b) *. (step -. step_c)
        /. ((step_a -. step_b) *. (step_a -. step_c))
      in
      let wb =
        (step -. step_a) *. (step -. step_c)
        /. ((step_b -. step_a) *. (step_b -. step_c))
      in
      let wc =
        (step -. step_a) *. (step -. step_b)
        /. ((step_c -. step_a) *. (step_c -. step_b))
      in
      (* Lead-in: fine through the input ramp plus four coarse windows, so
         the kink and the fast modes it excites are resolved — and mostly
         decayed — before the step-size extrapolation starts. *)
      let lead = int_of_float (ceil (ramp /. step)) + (4 * mult) in
      fine_steps (Int.min lead max_steps);
      if ln.remaining > 0 then
        if !fine_equiv + mult > max_steps then truncated := true
        else begin
          Array.blit v 0 ws.va0 0 n;
          Array.blit v 0 ws.vb0 0 n;
          Array.blit v 0 ws.vc0 0 n;
          let continue_ = ref true in
          while ln.remaining > 0 && !continue_ do
            if !fine_equiv + mult > max_steps then begin
              continue_ := false;
              truncated := true
            end
            else begin
              let t1 = !t +. step_a in
              incr solves;
              solve fa ~vs:(ramp_voltage ~ramp t1) ~vin:ws.va0 ~vout:ws.va1;
              incr solves;
              solve fb ~vs:(ramp_voltage ~ramp (!t +. step_b)) ~vin:ws.vb0
                ~vout:ws.vb1;
              incr solves;
              solve fb ~vs:(ramp_voltage ~ramp t1) ~vin:ws.vb1 ~vout:ws.vb1;
              incr solves;
              solve fc ~vs:(ramp_voltage ~ramp (!t +. step_c)) ~vin:ws.vc0
                ~vout:ws.vc1;
              for q = 2 to 4 do
                incr solves;
                solve fc
                  ~vs:(ramp_voltage ~ramp (!t +. (float_of_int q *. step_c)))
                  ~vin:ws.vc1 ~vout:ws.vc1
              done;
              (* Bracket test on the extrapolated frontier values. *)
              let hot = ref false in
              for idx = 0 to ln.nlive - 1 do
                let w0 = live.(idx) in
                let wi = watch.(w0) in
                if (wa *. ws.va1.(wi)) +. (wb *. ws.vb1.(wi))
                   +. (wc *. ws.vc1.(wi))
                   >= thresholds.(nextk.(w0))
                then hot := true
              done;
              if !hot then begin
                (* Rewind: rebuild the extrapolated entry state and
                   re-integrate the window at the fine rate. [prev]
                   already holds these values for the frontier (the same
                   extrapolation was committed there last boundary). *)
                for i = 0 to n - 1 do
                  v.(i) <-
                    (wa *. ws.va0.(i)) +. (wb *. ws.vb0.(i))
                    +. (wc *. ws.vc0.(i))
                done;
                fine_steps mult;
                if ln.remaining > 0 then begin
                  (* All coarse marches restart from the fine state. *)
                  t := t1;
                  Array.blit v 0 ws.va0 0 n;
                  Array.blit v 0 ws.vb0 0 n;
                  Array.blit v 0 ws.vc0 0 n
                end
              end
              else begin
                for idx = 0 to ln.nlive - 1 do
                  let w0 = live.(idx) in
                  let wi = watch.(w0) in
                  prev.(w0) <-
                    (wa *. ws.va1.(wi)) +. (wb *. ws.vb1.(wi))
                    +. (wc *. ws.vc1.(wi))
                done;
                (* Commit: window-exit states become the next entry. *)
                let tmp = ws.va0 in
                ws.va0 <- ws.va1;
                ws.va1 <- tmp;
                let tmp = ws.vb0 in
                ws.vb0 <- ws.vb1;
                ws.vb1 <- tmp;
                let tmp = ws.vc0 in
                ws.vc0 <- ws.vc1;
                ws.vc1 <- tmp;
                t := t1;
                fine_equiv := !fine_equiv + mult
              end
            end
          done
        end
    end;
    record_march ~solves:!solves ~fine_equiv:!fine_equiv ~truncated:!truncated
  end

(* A boxed march's coarse-rate factorisations: from the cache when there
   is one (so two lanes at one rate get the same [factored]), else
   factored afresh. *)
let coarse_rate ?fcache ?fp (rc : Rcnet.t) stp =
  match fcache with
  | Some c -> Fcache.get c ?fp rc ~step:stp
  | None -> factor ~step:stp rc

(* One single-lane march of [rc] at a resolved rate [mult]. *)
let march_one ~step ~mult ?fcache ?fp ~fine ~ws ~max_steps (rc : Rcnet.t)
    ~r_drv ~s_drv ~watch ~on_cross =
  let g0 = 1. /. r_drv in
  let ramp = s_drv /. 0.8 in
  let r = ws.r in
  let solve f ~vs ~vin ~vout = step_solve rc f ~g0 ~vs ~vin ~vout ~r in
  march_core ~step ~mult ~fine ~rate:(coarse_rate ?fcache ?fp rc) ~solve ~ws
    ~n:rc.size ~ramp ~watch ~on_cross ~max_steps

let simulate ?(step = default_step) ?(mode = default_mode) ?factored ?fcache
    ?fp ?ws ?(max_steps = default_max_steps) (rc : Rcnet.t) ~r_drv ~s_drv
    ~watch ~on_cross =
  let n = rc.size in
  if n = 0 then { solves = 0; fine_equiv = 0; truncated = false }
  else begin
    let ws = match ws with Some w -> w | None -> domain_workspace () in
    grow ws ~n ~w:(Array.length watch);
    let mult =
      resolve_mult mode rc ~r_drv ~watch ~step ~down:ws.va0 ~m:ws.vb0
    in
    let fine = get_factored ?factored ?fcache ?fp ~step rc in
    march_one ~step ~mult ?fcache ?fp ~fine ~ws ~max_steps rc ~r_drv ~s_drv
      ~watch ~on_cross
  end

(* Crossing times (three per tap, in watch order) to per-tap
   (delay, slew); [node w] names tap [w] in failure messages. *)
let tap_results ~ntaps ~node ~s_drv ~truncated times =
  let ramp = s_drv /. 0.8 in
  Array.init ntaps (fun w ->
      let t10 = times.(w * 3) and t50 = times.((w * 3) + 1)
      and t90 = times.((w * 3) + 2) in
      if Float.is_nan t90 then begin
        (* A truncated march legitimately never reached 90 %; anything
           else means the waveform itself went non-finite. *)
        if not truncated then
          Numerics.fail "transient solve: NaN crossing at tap node %d"
            (node w);
        (infinity, infinity)
      end
      else begin
        let delay = t50 -. (ramp /. 2.) and slew = t90 -. t10 in
        if Float.is_nan delay || Float.is_nan slew then
          Numerics.fail "transient solve: NaN result at tap node %d" (node w);
        (delay, slew)
      end)

let rc_tap_results (rc : Rcnet.t) =
  tap_results ~ntaps:(Array.length rc.taps) ~node:(fun w -> fst rc.taps.(w))

let solve ?step ?mode ?factored ?fcache ?fp ?ws ?max_steps (rc : Rcnet.t)
    ~r_drv ~s_drv =
  let watch = Array.map fst rc.taps in
  let times = Array.make (Array.length watch * 3) nan in
  let res =
    simulate ?step ?mode ?factored ?fcache ?fp ?ws ?max_steps rc ~r_drv
      ~s_drv ~watch ~on_cross:(fun w k t -> times.((w * 3) + k) <- t)
  in
  rc_tap_results rc ~s_drv ~truncated:res.truncated times

(* ------------------------------------------------------------------ *)
(* Two-lane march: a corner's rise and fall drives of one stage        *)
(* ------------------------------------------------------------------ *)

(* Both lanes step in lockstep over the shared fine factorisation; each
   keeps its own driver, ramp, state, residual and crossing scan. Once
   one lane has fired all its crossings the other finishes alone on the
   single-lane kernel, continuing the same time sequence. Every lane
   therefore performs exactly the steps, float operations and scans of
   its own single fine march, and reports the same [march]. *)
let march_pair (rc : Rcnet.t) f ~step ~max_steps (la, g0a, rampa, ra)
    (lb, g0b, rampb, rb) =
  let va = la.lv and vb = lb.lv in
  let t = ref 0. and k = ref 0 in
  while la.remaining > 0 && lb.remaining > 0 && !k < max_steps do
    incr k;
    let t1 = !t +. step in
    step_solve2 rc f ~g0a ~vsa:(ramp_voltage ~ramp:rampa t1) ~ina:va ~outa:va
      ~ra ~g0b ~vsb:(ramp_voltage ~ramp:rampb t1) ~inb:vb ~outb:vb ~rb;
    scan la ~t0:!t ~h:step;
    scan lb ~t0:!t ~h:step;
    t := t1
  done;
  let shared = !k in
  (* At most one lane still has crossings pending here. *)
  let finish ln ~g0 ~ramp ~r =
    let k0 = !k in
    while ln.remaining > 0 && !k < max_steps do
      incr k;
      let t1 = !t +. step in
      step_solve rc f ~g0 ~vs:(ramp_voltage ~ramp t1) ~vin:ln.lv ~vout:ln.lv
        ~r;
      scan ln ~t0:!t ~h:step;
      t := t1
    done;
    let steps = shared + (!k - k0) in
    record_march ~solves:steps ~fine_equiv:steps
      ~truncated:(ln.remaining > 0)
  in
  let ma = finish la ~g0:g0a ~ramp:rampa ~r:ra in
  let mb = finish lb ~g0:g0b ~ramp:rampb ~r:rb in
  (ma, mb)

(* Two multi-rate marches, each its own unchanged [march_core] running
   as a fiber whose [solve] posts the kernel request (factorisation,
   source voltage, state in/out) to its lane's [request] and yields. The
   driver below holds both lanes' pending requests: when they name the
   same [factored] — the shared fine factorisation, or a coarse rate both
   lanes got from the cache — it runs them as one [step_solve2] sweep and
   resumes both; otherwise it steps one lane alone on [step_solve], the
   one on the fine factorisation if either is (so a lane in its lead-in
   or a rewind catches up), else the one at the smaller step (the later
   stage of its window, so two lanes at one rate meet at the next window
   start), lane a on a tie. Once a lane's march returns, the other
   finishes alone. Each lane therefore performs exactly the steps, float
   operations, scans and [record_march] of its own [march_one]; the
   schedule changes only which steps share a sweep. *)
type request = {
  mutable rf : factored;
  mutable rvs : float;
  mutable rin : float array;
  mutable rout : float array;
}

type _ Effect.t += Yield_step : unit Effect.t

type fiber =
  | Done of march
  | Waiting of (unit, fiber) Effect.Deep.continuation

exception Abandoned

(* Run [body] as a fiber up to its first yield (or to its end). *)
let fiber_start body =
  Effect.Deep.match_with body ()
    { retc = (fun m -> Done m);
      exnc = raise;
      effc =
        (fun (type a) (e : a Effect.t) ->
          match e with
          | Yield_step ->
            Some (fun (k : (a, fiber) Effect.Deep.continuation) -> Waiting k)
          | _ -> None) }

(* Unwind a suspended lane when its partner (or the driver) raised, so no
   continuation is left dangling. *)
let abandon = function
  | Done _ -> ()
  | Waiting k -> (
    match Effect.Deep.discontinue k Abandoned with
    | _ -> ()
    | exception Abandoned -> ())

let march_pair_multi (rc : Rcnet.t) ~fine (g0a, ra, march_a)
    (g0b, rb, march_b) =
  let n = rc.size in
  (* A lane: its request cell and its march over the yielding kernel. *)
  let lane march =
    let q = { rf = fine; rvs = 0.; rin = [||]; rout = [||] } in
    let solve f ~vs ~vin ~vout =
      q.rf <- f;
      q.rvs <- vs;
      q.rin <- vin;
      q.rout <- vout;
      Effect.perform Yield_step
    in
    (q, fun () -> march solve)
  in
  let qa, body_a = lane march_a and qb, body_b = lane march_b in
  let solo q ~g0 ~r =
    step_solve rc q.rf ~g0 ~vs:q.rvs ~vin:q.rin ~vout:q.rout ~r
  in
  (* [idle] marks a cell whose fiber is running, so a raise abandons only
     lanes that are really suspended. *)
  let idle = Done { solves = 0; fine_equiv = 0; truncated = false } in
  let a = ref idle and b = ref idle in
  let resume cell k =
    cell := idle;
    cell := Effect.Deep.continue k ()
  in
  let rec loop () =
    match (!a, !b) with
    | Done ma, Done mb -> (ma, mb)
    | Waiting ka, Done _ ->
      solo qa ~g0:g0a ~r:ra;
      resume a ka;
      loop ()
    | Done _, Waiting kb ->
      solo qb ~g0:g0b ~r:rb;
      resume b kb;
      loop ()
    | Waiting ka, Waiting kb ->
      let fa = qa.rf and fb = qb.rf in
      if fa == fb then begin
        (* [step_solve2] trusts the shapes; a coarse rate is a cached
           value, so check it like the fine one was. *)
        if Array.length fa.g < n then
          invalid_arg "Transient.solve_pair: factorisation/stage size mismatch";
        step_solve2 rc fa ~g0a ~vsa:qa.rvs ~ina:qa.rin ~outa:qa.rout ~ra ~g0b
          ~vsb:qb.rvs ~inb:qb.rin ~outb:qb.rout ~rb;
        resume a ka;
        resume b kb
      end
      else if fb == fine || (fa != fine && fb.h < fa.h) then begin
        solo qb ~g0:g0b ~r:rb;
        resume b kb
      end
      else begin
        solo qa ~g0:g0a ~r:ra;
        resume a ka
      end;
      loop ()
  in
  match
    a := fiber_start body_a;
    b := fiber_start body_b;
    loop ()
  with
  | res -> res
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    abandon !a;
    abandon !b;
    Printexc.raise_with_backtrace e bt

let solve_pair ?(step = default_step) ?(mode = default_mode) ?fcache ?fp
    ?(max_steps = default_max_steps) ~ws:(ws_a, ws_b) (rc : Rcnet.t)
    ~r_drv:(r_a, r_b) ~s_drv:(s_a, s_b) =
  if ws_a == ws_b then invalid_arg "Transient.solve_pair: shared workspace";
  let n = rc.size in
  let watch = Array.map fst rc.taps in
  let nw = Array.length watch in
  let times_a = Array.make (nw * 3) nan and times_b = Array.make (nw * 3) nan in
  let on_a w k t = times_a.((w * 3) + k) <- t
  and on_b w k t = times_b.((w * 3) + k) <- t in
  let ma, mb =
    if n = 0 then
      let none = { solves = 0; fine_equiv = 0; truncated = false } in
      (none, none)
    else begin
      grow ws_a ~n ~w:nw;
      grow ws_b ~n ~w:nw;
      let mult_a =
        resolve_mult mode rc ~r_drv:r_a ~watch ~step ~down:ws_a.va0
          ~m:ws_a.vb0
      in
      let mult_b =
        resolve_mult mode rc ~r_drv:r_b ~watch ~step ~down:ws_b.va0
          ~m:ws_b.vb0
      in
      let fine = get_factored ?fcache ?fp ~step rc in
      (* [step_solve2] trusts the shapes; check them once per pair. *)
      if Array.length fine.g < n || Array.length rc.parent < n then
        invalid_arg "Transient.solve_pair: factorisation/stage size mismatch";
      for i = 1 to n - 1 do
        let p = rc.parent.(i) in
        if p < 0 || p >= i then
          invalid_arg "Transient.solve_pair: parents not topological"
      done;
      if mult_a <= 1 && mult_b <= 1 then
        march_pair rc fine ~step ~max_steps
          (lane_start ws_a ~n ~watch ~on_cross:on_a, 1. /. r_a, s_a /. 0.8,
           ws_a.r)
          (lane_start ws_b ~n ~watch ~on_cross:on_b, 1. /. r_b, s_b /. 0.8,
           ws_b.r)
      else
        (* Each lane keeps its own multi-rate march; the driver fuses
           the sweeps the two share. *)
        let march ~mult ws ~s_drv ~on_cross solve =
          march_core ~step ~mult ~fine ~rate:(coarse_rate ?fcache ?fp rc)
            ~solve ~ws ~n ~ramp:(s_drv /. 0.8) ~watch ~on_cross ~max_steps
        in
        march_pair_multi rc ~fine
          (1. /. r_a, ws_a.r, march ~mult:mult_a ws_a ~s_drv:s_a ~on_cross:on_a)
          (1. /. r_b, ws_b.r, march ~mult:mult_b ws_b ~s_drv:s_b ~on_cross:on_b)
    end
  in
  let res_a = rc_tap_results rc ~s_drv:s_a ~truncated:ma.truncated times_a in
  (res_a, rc_tap_results rc ~s_drv:s_b ~truncated:mb.truncated times_b)

let probe ?(step = default_step) ?factored ?fcache ?fp ?ws (rc : Rcnet.t)
    ~r_drv ~s_drv ~node ~times =
  let f = get_factored ?factored ?fcache ?fp ~step rc in
  let g0 = 1. /. r_drv in
  let n = rc.size in
  let v, r =
    match ws with
    | Some w ->
      grow w ~n ~w:0;
      (w.v, w.r)
    | None -> (Array.make (Int.max n 1) 0., Array.make (Int.max n 1) 0.)
  in
  Array.fill v 0 n 0.;
  let ramp = s_drv /. 0.8 in
  let nt = Array.length times in
  let out = Array.make nt 0. in
  (* Visit probe times in ascending order regardless of caller ordering,
     scattering results back through the sort permutation. *)
  let order = Array.init nt (fun i -> i) in
  Array.sort (fun a b -> Float.compare times.(a) times.(b)) order;
  let t_end = if nt = 0 then 0. else times.(order.(nt - 1)) in
  let t = ref 0. in
  let k = ref 0 in
  while !t < t_end && !k < nt do
    let t1 = !t +. step in
    step_solve rc f ~g0 ~vs:(ramp_voltage ~ramp t1) ~vin:v ~vout:v ~r;
    while !k < nt && times.(order.(!k)) <= t1 do
      out.(order.(!k)) <- v.(node);
      incr k
    done;
    t := t1
  done;
  (* Probe times at or past the final simulated step (including duplicates
     of t_end when step granularity skips them) take the last computed
     node voltage instead of silently reading 0. *)
  while !k < nt do
    out.(order.(!k)) <- v.(node);
    incr k
  done;
  out

(* ------------------------------------------------------------------ *)
(* Flat kernel over the Rcflat stage pool                              *)
(* ------------------------------------------------------------------ *)

module Flat = struct
  (* Same backward-Euler factorisation as the boxed kernel, stored as
     flat float64 buffers with both per-node divisions of the sweeps
     precomputed: [fgd] holds g/dfact (the forward-sweep coefficient,
     which is also the backward-sweep parent coefficient, since
     (r + g·v_p)/dfact = r/dfact + (g/dfact)·v_p) and [finv] holds
     1/dfact. Per step the kernel does no division and no allocation.

     The factored arrays are additionally permuted into breadth-first
     level order. Both sweeps chain through the tree one parent hop per
     node, so in DFS order each long wire is a serial latency chain of
     dependent multiply-adds (with a division in that chain on the boxed
     side). In level order every node of a level depends only on the
     previous level, which the out-of-order core overlaps freely — the
     sweeps become throughput-bound instead of latency-bound. The
     permutation only reorders the residual accumulation, so crossing
     times agree with the boxed reference to sub-femtosecond (observed
     ~1e-6 ps at 100K-node stages). State vectors live in permuted
     space for the whole march; [fpos] maps stage-local rc indices into
     it for watch lists and probes. *)
  type ffactored = {
    fn : int;
    fparent : int array;  (* permuted-space parent; fparent.(0) = -1 *)
    fpos : int array;     (* stage-local rc index -> permuted index *)
    fgd : Rcflat.f64;     (* g / dfact, coefficient of both sweeps *)
    finv : Rcflat.f64;    (* 1 / dfact *)
    fcoh : Rcflat.f64;    (* c·(rc_to_ps)/h *)
    fd0 : float;          (* factored root diagonal, driver term excluded *)
    fh : float;
  }

  let fba n : Rcflat.f64 =
    Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout (Int.max n 1)

  let factor (p : Rcflat.t) ~si ~step =
    let n = p.Rcflat.size.(si) in
    let base = p.Rcflat.off.(si) in
    let res = p.Rcflat.res and cap = p.Rcflat.cap in
    let parent = p.Rcflat.parent in
    let fg = Array.make (Int.max n 1) 0. in
    for i = 1 to n - 1 do
      (* Same clamp as the boxed [factor]. *)
      fg.(i) <- 1. /. Float.max res.{base + i} 1e-6
    done;
    let dfact = Array.make (Int.max n 1) 0. in
    for i = 0 to n - 1 do
      dfact.(i) <- (cap.{base + i} *. Tech.Units.rc_to_ps /. step) +. fg.(i)
    done;
    for i = 1 to n - 1 do
      let pa = parent.(base + i) in
      dfact.(pa) <- dfact.(pa) +. fg.(i)
    done;
    (* Leaf elimination over the precomputed order: within a stage the rc
       indices are topological, so the order is simply n-1 downto 1. *)
    for i = n - 1 downto 1 do
      let pa = parent.(base + i) in
      dfact.(pa) <- dfact.(pa) -. (fg.(i) *. fg.(i) /. dfact.(i))
    done;
    (* Stable counting sort by tree level: the permutation is a function
       of the stage structure only, so every rate of a stage shares it. *)
    let level = Array.make (Int.max n 1) 0 in
    let nlevels = ref 1 in
    for i = 1 to n - 1 do
      level.(i) <- level.(parent.(base + i)) + 1;
      if level.(i) >= !nlevels then nlevels := level.(i) + 1
    done;
    let loff = Array.make (!nlevels + 1) 0 in
    for i = 0 to n - 1 do
      loff.(level.(i) + 1) <- loff.(level.(i) + 1) + 1
    done;
    for l = 1 to !nlevels do
      loff.(l) <- loff.(l) + loff.(l - 1)
    done;
    let ord = Array.make (Int.max n 1) 0 in
    let fpos = Array.make (Int.max n 1) 0 in
    for i = 0 to n - 1 do
      let k = loff.(level.(i)) in
      loff.(level.(i)) <- k + 1;
      ord.(k) <- i;
      fpos.(i) <- k
    done;
    let fparent = Array.make (Int.max n 1) (-1) in
    let fgd = fba n and finv = fba n and fcoh = fba n in
    fgd.{0} <- 0.;
    finv.{0} <- 0.;
    fcoh.{0} <- cap.{base} *. Tech.Units.rc_to_ps /. step;
    for k = 1 to n - 1 do
      let i = ord.(k) in
      fparent.(k) <- fpos.(parent.(base + i));
      fgd.{k} <- fg.(i) /. dfact.(i);
      finv.{k} <- 1. /. dfact.(i);
      fcoh.{k} <- cap.{base + i} *. Tech.Units.rc_to_ps /. step
    done;
    { fn = n; fparent; fpos; fgd; finv; fcoh; fd0 = dfact.(0); fh = step }

  (* One implicit step over the permuted stage: division-free tight loops
     on flat memory, zero allocation. [vin]/[vout] may alias. The
     residual buffer [r] must be all-zero on entry and is left all-zero —
     the forward sweep accumulates child contributions into it before
     visiting a node, and the backward sweep clears each slot as it
     consumes it, fusing what would otherwise be a third initialisation
     pass into the two sweeps. *)
  let step_solve f ~g0 ~vs ~(vin : float array) ~(vout : float array)
      ~(r : float array) =
    let n = f.fn in
    let fcoh = f.fcoh and fgd = f.fgd and finv = f.finv in
    let parent = f.fparent in
    for i = n - 1 downto 1 do
      let ri =
        (Bigarray.Array1.unsafe_get fcoh i *. Array.unsafe_get vin i)
        +. Array.unsafe_get r i
      in
      Array.unsafe_set r i ri;
      let pa = Array.unsafe_get parent i in
      Array.unsafe_set r pa
        (Array.unsafe_get r pa +. (Bigarray.Array1.unsafe_get fgd i *. ri))
    done;
    let r0 = (fcoh.{0} *. vin.(0)) +. r.(0) +. (g0 *. vs) in
    r.(0) <- 0.;
    vout.(0) <- r0 /. (f.fd0 +. g0);
    for i = 1 to n - 1 do
      let pa = Array.unsafe_get parent i in
      Array.unsafe_set vout i
        ((Array.unsafe_get r i *. Bigarray.Array1.unsafe_get finv i)
        +. (Bigarray.Array1.unsafe_get fgd i *. Array.unsafe_get vout pa));
      Array.unsafe_set r i 0.
    done

  module Fcache = struct
    type t = (int64 * float, ffactored) Cache.t

    let create ?(cap = 4096) () : t = Cache.create ~cap

    let get c (p : Rcflat.t) ~si ~step =
      let key = (p.Rcflat.fp.(si), step) in
      match Cache.find c key with
      | Some f -> f
      | None ->
        let f = factor p ~si ~step in
        Cache.add c key f;
        f

    let length = Cache.length
    let clear = Cache.clear
  end

  (* Same arithmetic as the boxed [stage_tau] on bit-identical inputs, so
     the Auto controller resolves the same mult for the same stage. *)
  let stage_tau (p : Rcflat.t) ~si ~r_drv ~watch ~down ~m =
    let n = p.Rcflat.size.(si) in
    let base = p.Rcflat.off.(si) in
    let res = p.Rcflat.res and cap = p.Rcflat.cap in
    let parent = p.Rcflat.parent in
    for i = 0 to n - 1 do
      down.(i) <- cap.{base + i}
    done;
    for i = n - 1 downto 1 do
      let pa = parent.(base + i) in
      down.(pa) <- down.(pa) +. down.(i)
    done;
    m.(0) <- Tech.Units.ps_of_rc r_drv down.(0);
    for i = 1 to n - 1 do
      m.(i) <- m.(parent.(base + i)) +. Tech.Units.ps_of_rc res.{base + i} down.(i)
    done;
    let tau = ref infinity in
    Array.iter (fun wi -> if m.(wi) < !tau then tau := m.(wi)) watch;
    if Float.is_finite !tau then !tau else 0.

  let resolve_mult mode (p : Rcflat.t) ~si ~r_drv ~watch ~step ~down ~m =
    match mode with
    | Fixed -> 1
    | Adaptive { mult } -> if mult < 2 then 1 else 2 * (mult / 2)
    | Auto { max_mult } ->
      if Array.length watch = 0 then 1
      else
        let tau = stage_tau p ~si ~r_drv ~watch ~down ~m in
        mult_of_tau ~tau ~step ~max_mult

  (* Everything a march needs besides mutable scratch. [prep] touches the
     shared factorisation cache; [solve_prepped] touches only its own
     workspace — the batched evaluator preps serially and fans the
     prepped solves out across domains with zero shared mutable state. *)
  type prepped = {
    p_mult : int;
    p_fine : ffactored;
    p_a : ffactored option;
    p_b : ffactored option;
    p_c : ffactored option;
  }

  let prep ?(step = default_step) ?(mode = default_mode) ~fcache ~scratch
      (p : Rcflat.t) ~si ~r_drv =
    let n = p.Rcflat.size.(si) in
    grow scratch ~n ~w:0;
    let watch = p.Rcflat.watch.(si) in
    let mult =
      resolve_mult mode p ~si ~r_drv ~watch ~step ~down:scratch.va0
        ~m:scratch.vb0
    in
    let fine = Fcache.get fcache p ~si ~step in
    if mult <= 1 then { p_mult = mult; p_fine = fine; p_a = None; p_b = None;
                        p_c = None }
    else begin
      let step_a = step *. float_of_int mult in
      let fa = Fcache.get fcache p ~si ~step:step_a in
      let fb = Fcache.get fcache p ~si ~step:(step_a /. 2.) in
      let fc = Fcache.get fcache p ~si ~step:(step_a /. 4.) in
      { p_mult = mult; p_fine = fine; p_a = Some fa; p_b = Some fb;
        p_c = Some fc }
    end

  let simulate_prepped ?(step = default_step) ?(max_steps = default_max_steps)
      ~ws (p : Rcflat.t) ~si ~prepped ~r_drv ~s_drv ~watch ~on_cross =
    let n = p.Rcflat.size.(si) in
    if n = 0 then { solves = 0; fine_equiv = 0; truncated = false }
    else begin
      grow ws ~n ~w:(Array.length watch);
      let g0 = 1. /. r_drv in
      let ramp = s_drv /. 0.8 in
      (* The march state lives in the factorisation's level-permuted
         space; watches follow it. The residual buffer is self-cleaning
         across steps but may hold leftovers from the boxed kernel, which
         shares the workspace. *)
      let watch = Array.map (fun wi -> prepped.p_fine.fpos.(wi)) watch in
      Array.fill ws.r 0 n 0.;
      let r = ws.r in
      let solve f ~vs ~vin ~vout = step_solve f ~g0 ~vs ~vin ~vout ~r in
      (* The controller recomputes step_a/b/c with the exact expressions
         [prep] used, so float equality selects the right handle. *)
      let mult = prepped.p_mult in
      let step_a = step *. float_of_int mult in
      let rate stp =
        let pick = function Some f -> f | None -> factor p ~si ~step:stp in
        if stp = step_a then pick prepped.p_a
        else if stp = step_a /. 2. then pick prepped.p_b
        else pick prepped.p_c
      in
      march_core ~step ~mult ~fine:prepped.p_fine ~rate ~solve ~ws ~n ~ramp
        ~watch ~on_cross ~max_steps
    end

  (* Flat analogue of the boxed [solve]: crossing times to (delay, slew)
     pairs per tap, with identical truncation and NaN semantics. *)
  let solve_prepped ?step ?max_steps ~ws (p : Rcflat.t) ~si ~prepped ~r_drv
      ~s_drv =
    let watch = p.Rcflat.watch.(si) in
    let ntaps = Array.length watch in
    let times = Array.make (Int.max (ntaps * 3) 1) nan in
    let res =
      simulate_prepped ?step ?max_steps ~ws p ~si ~prepped ~r_drv ~s_drv
        ~watch
        ~on_cross:(fun w k t -> times.((w * 3) + k) <- t)
    in
    tap_results ~ntaps ~node:(Array.get p.Rcflat.tap_node.(si)) ~s_drv
      ~truncated:res.truncated times

  let solve ?step ?mode ?max_steps ~fcache ?ws (p : Rcflat.t) ~si ~r_drv
      ~s_drv =
    let ws = match ws with Some w -> w | None -> domain_workspace () in
    let prepped = prep ?step ?mode ~fcache ~scratch:ws p ~si ~r_drv in
    solve_prepped ?step ?max_steps ~ws p ~si ~prepped ~r_drv ~s_drv
end

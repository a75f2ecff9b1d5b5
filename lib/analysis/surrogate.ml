module Tree = Ctree.Tree

(* Feature layout (all deltas post − pre over the touched set):
     0  Δ wirelength, µm
     1  Δ wire capacitance, fF
     2  Δ driver output resistance, kΩ (touched buffer nodes)
     3  Δ buffer input capacitance, fF
     4  Σ pos(v) · Δlen_v        — where the length moved
     5  Σ pos(v) · Δcap_v
     6  Σ pos(v) · Δr_v
     7  Σ pos(v) · Δ(len_v²)     — Elmore's length-squared term
   Units are chosen so typical magnitudes land within a few orders of
   each other; the scale-aware ridge in [ols] covers the rest. *)
let dim = 8

(* Per-node electrical state, [stride] floats per touched node: wire
   length (µm), wire cap (fF), driver output resistance (kΩ), buffer
   input cap (fF). Ids that do not exist on [tree] (a rolled-back
   [split_wire]'s fresh node) or are out of range stay zero. *)
let stride = 4

let fill tree id dst o =
  if id < 0 || id >= Tree.size tree then Array.fill dst o stride 0.
  else begin
    let node = Tree.node tree id in
    dst.(o) <- float_of_int (Tree.wire_len node) /. 1000.;
    dst.(o + 1) <- Tree.wire_cap tree node;
    match node.Tree.kind with
    | Tree.Buffer b ->
      dst.(o + 2) <- Tech.Composite.r_out b /. 1000.;
      dst.(o + 3) <- Tech.Composite.c_in b
    | Tree.Source | Tree.Internal | Tree.Sink _ ->
      dst.(o + 2) <- 0.;
      dst.(o + 3) <- 0.
  end

let snapshot tree ids =
  let dst = Array.make (stride * List.length ids) 0. in
  List.iteri (fun k id -> fill tree id dst (stride * k)) ids;
  dst

let position_fn (ev : Evaluator.t) =
  let lat = (Evaluator.nominal_run ev Evaluator.Rise).Evaluator.latency in
  let mid = 0.5 *. (ev.Evaluator.t_min +. ev.Evaluator.t_max) in
  let half = (0.5 *. (ev.Evaluator.t_max -. ev.Evaluator.t_min)) +. 1e-9 in
  fun id ->
    if id < 0 || id >= Array.length lat then 0.
    else begin
      let l = lat.(id) in
      if (not (Float.is_finite l)) || l <= 0. then 0.
      else Float.max (-1.) (Float.min 1. ((l -. mid) /. half))
    end

let edit_features ~pos ~ids ~post tree =
  let x = Array.make dim 0. in
  let pre = Array.make stride 0. in
  List.iteri
    (fun k id ->
      let o = stride * k in
      fill tree id pre 0;
      let dlen = post.(o) -. pre.(0) in
      let dcap = post.(o + 1) -. pre.(1) in
      let dr = post.(o + 2) -. pre.(2) in
      let dcin = post.(o + 3) -. pre.(3) in
      let p = pos id in
      x.(0) <- x.(0) +. dlen;
      x.(1) <- x.(1) +. dcap;
      x.(2) <- x.(2) +. dr;
      x.(3) <- x.(3) +. dcin;
      x.(4) <- x.(4) +. (p *. dlen);
      x.(5) <- x.(5) +. (p *. dcap);
      x.(6) <- x.(6) +. (p *. dr);
      x.(7) <-
        x.(7) +. (p *. ((post.(o) *. post.(o)) -. (pre.(0) *. pre.(0)))))
    ids;
  x

(* ------------------------------------------------------------------ *)
(* Ordinary least squares over the ring-buffer window.                 *)
(* ------------------------------------------------------------------ *)

(* Solve (XᵀX + λ·diag) β = Xᵀy by Gaussian elimination with partial
   pivoting. The ridge term is scale-aware (relative to each diagonal
   entry) and tiny, so it only matters on rank-deficient windows —
   e.g. when every observed edit so far moved the same feature. *)
let ols samples =
  let d =
    match samples with
    | [||] -> invalid_arg "Surrogate.ols: no samples"
    | _ -> Array.length (fst samples.(0)) + 1
  in
  let a = Array.make_matrix d d 0. in
  let b = Array.make d 0. in
  Array.iter
    (fun (x, y) ->
      let xi i = if i = d - 1 then 1. else x.(i) in
      for i = 0 to d - 1 do
        for j = 0 to d - 1 do
          a.(i).(j) <- a.(i).(j) +. (xi i *. xi j)
        done;
        b.(i) <- b.(i) +. (xi i *. y)
      done)
    samples;
  for i = 0 to d - 1 do
    a.(i).(i) <- a.(i).(i) +. (1e-8 *. (a.(i).(i) +. 1.))
  done;
  (* Elimination. *)
  for col = 0 to d - 1 do
    let piv = ref col in
    for row = col + 1 to d - 1 do
      if Float.abs a.(row).(col) > Float.abs a.(!piv).(col) then piv := row
    done;
    if !piv <> col then begin
      let tmp = a.(col) in
      a.(col) <- a.(!piv);
      a.(!piv) <- tmp;
      let tb = b.(col) in
      b.(col) <- b.(!piv);
      b.(!piv) <- tb
    end;
    let p = a.(col).(col) in
    if Float.abs p > 1e-30 then
      for row = col + 1 to d - 1 do
        let f = a.(row).(col) /. p in
        if f <> 0. then begin
          for j = col to d - 1 do
            a.(row).(j) <- a.(row).(j) -. (f *. a.(col).(j))
          done;
          b.(row) <- b.(row) -. (f *. b.(col))
        end
      done
  done;
  let beta = Array.make d 0. in
  for i = d - 1 downto 0 do
    let s = ref b.(i) in
    for j = i + 1 to d - 1 do
      s := !s -. (a.(i).(j) *. beta.(j))
    done;
    beta.(i) <- (if Float.abs a.(i).(i) > 1e-30 then !s /. a.(i).(i) else 0.)
  done;
  beta

(* ------------------------------------------------------------------ *)
(* Per-key calibrated model.                                           *)
(* ------------------------------------------------------------------ *)

let capacity = 64

(* Enough samples to over-determine the 9 coefficients before the first
   fit; until then {!predict} returns [None] and consumers evaluate
   everything (the warm-up schedule). *)
let min_samples = 10

let refit_every = 4

(* Trust radius: 3× the window RMS residual, floored so a lucky early
   window cannot claim near-zero uncertainty. *)
let trust_mult = 3.
let trust_floor_ps = 0.05

type model = {
  ring : (float array * float) array;  (* (features, measured delta) *)
  mutable count : int;                 (* total observations *)
  mutable since_fit : int;
  mutable coeffs : float array option;
  mutable trust : float;
  mutable widen : int;
}

type stats = {
  observations : int;
  refits : int;
  warmup_rounds : int;
  ranked_rounds : int;
  fallbacks : int;
  mispredicts : int;
  evals_saved : int;
}

type t = {
  models : (string, model) Hashtbl.t;
  mutable hopeless_seen : int;
  mutable s_observations : int;
  mutable s_refits : int;
  mutable s_warmup : int;
  mutable s_ranked : int;
  mutable s_fallbacks : int;
  mutable s_mispredicts : int;
  mutable s_saved : int;
}

let create () =
  { models = Hashtbl.create 4; hopeless_seen = 0; s_observations = 0;
    s_refits = 0; s_warmup = 0; s_ranked = 0; s_fallbacks = 0;
    s_mispredicts = 0; s_saved = 0 }

let model t key =
  match Hashtbl.find_opt t.models key with
  | Some m -> m
  | None ->
    let m =
      { ring = Array.make capacity ([||], 0.); count = 0; since_fit = 0;
        coeffs = None; trust = infinity; widen = 0 }
    in
    Hashtbl.replace t.models key m;
    m

let window m =
  let n = min m.count capacity in
  (* Oldest-first, so the fit is a pure function of the observation
     sequence regardless of where the ring pointer sits. *)
  Array.init n (fun i -> m.ring.((m.count - n + i) mod capacity))

let predict_with coeffs x =
  let d = Array.length coeffs in
  let s = ref coeffs.(d - 1) in
  for i = 0 to d - 2 do
    s := !s +. (coeffs.(i) *. x.(i))
  done;
  !s

let refit t m =
  let samples = window m in
  let coeffs = ols samples in
  let rss =
    Array.fold_left
      (fun acc (x, y) ->
        let e = y -. predict_with coeffs x in
        acc +. (e *. e))
      0. samples
  in
  let rms = sqrt (rss /. float_of_int (Array.length samples)) in
  m.coeffs <- Some coeffs;
  m.trust <- Float.max (trust_mult *. rms) trust_floor_ps;
  m.since_fit <- 0;
  t.s_refits <- t.s_refits + 1

let observe t ~key x y =
  if Float.is_finite y then begin
    let m = model t key in
    m.ring.(m.count mod capacity) <- (x, y);
    m.count <- m.count + 1;
    m.since_fit <- m.since_fit + 1;
    t.s_observations <- t.s_observations + 1;
    if
      m.count >= min_samples
      && (m.coeffs = None || m.since_fit >= refit_every)
    then refit t m
  end

let predict t ~key x =
  match Hashtbl.find_opt t.models key with
  | None -> None
  | Some m -> (
    match m.coeffs with
    | None -> None
    | Some c -> Some (predict_with c x, m.trust))

(* The pruning margin is deliberately tighter than the trust radius: the
   mispredict guard asks "was this evaluation consistent with the
   model?" (3σ — rarely trips on a healthy model), while pruning asks
   "is this candidate worth an evaluation at all?" — a 1σ bound, since a
   wrongly pruned candidate costs one missed improvement (bounded by the
   audit schedule) whereas a wrongly trusted one costs a committed bad
   edit. *)
let prune_radius t ~key =
  match Hashtbl.find_opt t.models key with
  | None -> infinity
  | Some m -> Float.max (0.5 *. m.trust /. trust_mult) trust_floor_ps

let widening t ~key =
  match Hashtbl.find_opt t.models key with Some m -> m.widen | None -> 0

let note_mispredict t ~key =
  let m = model t key in
  m.widen <- min 8 (m.widen + 1);
  t.s_mispredicts <- t.s_mispredicts + 1

(* In-trust wins pay the widening back down: a burst of mispredicts
   widens R quickly, a run of validated predictions narrows it again
   instead of pinning the search at full width forever. *)
let note_intrust t ~key =
  let m = model t key in
  if m.widen > 0 then m.widen <- m.widen - 1

(* Every 8th all-candidates-ruled-out round is audited (evaluated) rather
   than skipped, so a drifted model keeps receiving corrective
   observations instead of silently terminating every loop. The counter
   is part of the state, so the audit schedule is deterministic. *)
let audit_hopeless t =
  let n = t.hopeless_seen in
  t.hopeless_seen <- n + 1;
  n mod 8 = 7

let stats t =
  { observations = t.s_observations; refits = t.s_refits;
    warmup_rounds = t.s_warmup; ranked_rounds = t.s_ranked;
    fallbacks = t.s_fallbacks; mispredicts = t.s_mispredicts;
    evals_saved = t.s_saved }

let note_warmup t = t.s_warmup <- t.s_warmup + 1
let note_ranked t = t.s_ranked <- t.s_ranked + 1
let note_fallback t = t.s_fallbacks <- t.s_fallbacks + 1
let note_saved t n = if n > 0 then t.s_saved <- t.s_saved + n

(* Adaptive multi-rate transient kernel vs the fixed-fine-step reference:
   across random stages, driver resistances, and corner-style scalings,
   every reported 50 % latency and 10–90 % slew must agree within the
   documented 0.05 ps tolerance (ISSUE 2 / doc/EXTENDING.md). Plus
   regression tests for the workspace, factorisation cache, epsilon step
   matching, and the truncation signal. *)

module Tr = Analysis.Transient
module Rcnet = Analysis.Rcnet

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let tolerance = 0.05 (* ps *)

(* ---------- random stage generator ---------- *)

(* A random RC tree in the kernel's native representation: random
   topology (each node hangs off an earlier one, so indices stay
   topological), random segment electricals spanning on-chip wire and
   via-ish values, and a random subset of nodes watched as taps. *)
let random_rc rng =
  let n = 2 + Random.State.int rng 220 in
  let parent = Array.make n (-1) in
  let res = Array.make n 0. in
  let cap = Array.make n 0. in
  for i = 1 to n - 1 do
    (* Bias towards recent nodes: long chains with occasional branching,
       like segmented routed wires. *)
    parent.(i) <-
      (if Random.State.bool rng then i - 1
       else Random.State.int rng i);
    res.(i) <- 10. +. Random.State.float rng 900.;
    cap.(i) <- 0.5 +. Random.State.float rng 20.
  done;
  cap.(0) <- 0.5 +. Random.State.float rng 5.;
  let ntaps = 1 + Random.State.int rng 6 in
  let taps =
    Array.init ntaps (fun k ->
        (1 + Random.State.int rng (n - 1), Rcnet.Tap_sink k))
  in
  { Rcnet.parent; res; cap; taps; size = n }

let random_drive rng =
  let r_drv = 20. +. Random.State.float rng 2000. in
  (* Corner-style resistance scaling, as Evaluator applies per corner. *)
  let r_scale = 0.8 +. Random.State.float rng 0.5 in
  let s_drv = 4. +. Random.State.float rng 60. in
  (r_drv *. r_scale, s_drv)

let check_close ~label ~step ref_results results =
  Array.iteri
    (fun k (d_ref, s_ref) ->
      let d, s = results.(k) in
      if Float.is_finite d_ref || Float.is_finite d then begin
        let dd = Float.abs (d -. d_ref) and ds = Float.abs (s -. s_ref) in
        if not (dd <= tolerance && ds <= tolerance) then
          Alcotest.failf
            "%s step=%.2g tap=%d: delay %.6f vs %.6f (Δ=%.4f), slew %.6f \
             vs %.6f (Δ=%.4f)"
            label step k d d_ref dd s s_ref ds
      end)
    ref_results

(* The accuracy property at one fine step: Fixed at [step] is the
   reference; every adaptive mode must track it within [tolerance]. *)
let accuracy_at ~samples ~step ~seed () =
  let rng = Random.State.make [| seed |] in
  let ws = Tr.workspace () in
  let fcache = Tr.Fcache.create () in
  for i = 1 to samples do
    let rc = random_rc rng in
    let r_drv, s_drv = random_drive rng in
    let reference = Tr.solve ~step ~mode:Tr.Fixed ~fcache ~ws rc ~r_drv ~s_drv in
    List.iter
      (fun (name, mode) ->
        let adaptive = Tr.solve ~step ~mode ~fcache ~ws rc ~r_drv ~s_drv in
        check_close
          ~label:(Printf.sprintf "sample %d %s" i name)
          ~step reference adaptive)
      [
        ("adaptive×8", Tr.Adaptive { mult = 8 });
        ("adaptive×16", Tr.Adaptive { mult = 16 });
        ("adaptive×32", Tr.Adaptive { mult = 32 });
        ("auto", Tr.Auto { max_mult = 32 });
      ]
  done

let test_accuracy_default_step () = accuracy_at ~samples:120 ~step:0.5 ~seed:7 ()
let test_accuracy_fine_reference () = accuracy_at ~samples:40 ~step:0.1 ~seed:11 ()

(* ---------- adaptive actually saves work ---------- *)

let long_chain_rc n =
  let parent = Array.init n (fun i -> i - 1) in
  let res = Array.make n 100. in
  let cap = Array.make n 4. in
  res.(0) <- 0.;
  { Rcnet.parent; res; cap;
    taps = [| (n - 1, Rcnet.Tap_sink 0) |]; size = n }

let test_auto_saves_solves () =
  let rc = long_chain_rc 400 in
  let run mode =
    Tr.simulate ~mode rc ~r_drv:150. ~s_drv:20.
      ~watch:(Array.map fst rc.Rcnet.taps)
      ~on_cross:(fun _ _ _ -> ())
  in
  let fixed = run Tr.Fixed in
  let auto = run (Tr.Auto { max_mult = 32 }) in
  check_bool "fixed does fine_equiv solves" true
    (fixed.Tr.solves = fixed.Tr.fine_equiv);
  check_bool "auto covers the same span" true
    (auto.Tr.fine_equiv >= (fixed.Tr.fine_equiv * 9 / 10));
  check_bool
    (Printf.sprintf "auto saves >2x (%d vs %d solves)" auto.Tr.solves
       fixed.Tr.solves)
    true
    (auto.Tr.solves * 2 < fixed.Tr.solves)

(* ---------- cross-call counters ---------- *)

let test_counters () =
  let rc = long_chain_rc 100 in
  let c0 = Tr.counters () in
  ignore (Tr.solve ~mode:(Tr.Auto { max_mult = 32 }) rc ~r_drv:150. ~s_drv:20.);
  let c1 = Tr.counters () in
  check_bool "solves advance" true
    (c1.Tr.total_solves > c0.Tr.total_solves);
  check_bool "saved advances on an adaptive march" true
    (c1.Tr.total_saved > c0.Tr.total_saved)

(* ---------- truncation signal ---------- *)

let test_truncation_signalled () =
  let rc = long_chain_rc 200 in
  let watch = Array.map fst rc.Rcnet.taps in
  let nothing _ _ _ = () in
  let short =
    Tr.simulate ~max_steps:40 rc ~r_drv:150. ~s_drv:20. ~watch
      ~on_cross:nothing
  in
  check_bool "budget too small => truncated" true short.Tr.truncated;
  check_bool "budget respected" true (short.Tr.fine_equiv <= 40);
  let full =
    Tr.simulate rc ~r_drv:150. ~s_drv:20. ~watch ~on_cross:nothing
  in
  check_bool "default budget completes" false full.Tr.truncated;
  let c0 = Tr.counters () in
  ignore
    (Tr.simulate ~max_steps:10 rc ~r_drv:150. ~s_drv:20. ~watch
       ~on_cross:nothing);
  check_int "truncation counted" (c0.Tr.total_truncations + 1)
    (Tr.counters ()).Tr.total_truncations

(* ---------- workspace reuse ---------- *)

let test_workspace_reuse_identical () =
  let rng = Random.State.make [| 23 |] in
  let ws = Tr.workspace () in
  for _ = 1 to 30 do
    let rc = random_rc rng in
    let r_drv, s_drv = random_drive rng in
    let fresh = Tr.solve rc ~r_drv ~s_drv in
    let reused = Tr.solve ~ws rc ~r_drv ~s_drv in
    Array.iteri
      (fun k (d, s) ->
        let d', s' = reused.(k) in
        check_bool "workspace reuse is bit-identical" true
          (d = d' && s = s'))
      fresh
  done

(* ---------- factorisation cache ---------- *)

let test_fcache_identical_and_bounded () =
  let rng = Random.State.make [| 31 |] in
  let fcache = Tr.Fcache.create ~cap:64 () in
  for _ = 1 to 40 do
    let rc = random_rc rng in
    let r_drv, s_drv = random_drive rng in
    let plain = Tr.solve rc ~r_drv ~s_drv in
    let cached = Tr.solve ~fcache rc ~r_drv ~s_drv in
    let cached2 = Tr.solve ~fcache rc ~r_drv ~s_drv in
    Array.iteri
      (fun k (d, s) ->
        let d1, s1 = cached.(k) and d2, s2 = cached2.(k) in
        check_bool "cached factor changes nothing" true
          (d = d1 && s = s1 && d = d2 && s = s2))
      plain;
    check_bool "cache stays within cap" true (Tr.Fcache.length fcache <= 64)
  done;
  check_bool "cache holds entries" true (Tr.Fcache.length fcache > 0);
  Tr.Fcache.clear fcache;
  check_int "clear empties" 0 (Tr.Fcache.length fcache)

(* ---------- epsilon step matching (satellite bugfix) ---------- *)

let test_step_epsilon_match () =
  let rc = long_chain_rc 20 in
  (* A step recomposed through float arithmetic differs from the literal
     in the last bits; the kernel must accept the pairing anyway. *)
  let exact = 0.5 in
  let recomposed = exact /. 3. *. 3. in
  check_bool "steps differ in the last bits or match" true
    (Float.abs (recomposed -. exact) < 1e-12);
  let f = Tr.factor ~step:exact rc in
  let r =
    Tr.solve ~step:recomposed ~factored:f ~mode:Tr.Fixed rc ~r_drv:150.
      ~s_drv:20.
  in
  check_bool "recomposed step accepted" true (Array.length r = 1);
  (match
     Tr.solve ~step:1.0 ~factored:f ~mode:Tr.Fixed rc ~r_drv:150. ~s_drv:20.
   with
  | _ -> Alcotest.fail "genuine mismatch must raise"
  | exception Invalid_argument _ -> ());
  (* Probe takes ?factored now too (satellite): same acceptance rule. *)
  let v =
    Tr.probe ~step:recomposed ~factored:f rc ~r_drv:150. ~s_drv:20. ~node:19
      ~times:[| 100.; 400. |]
  in
  check_int "probe with shared factorisation" 2 (Array.length v)

(* ---------- two-lane march = two single marches ---------- *)

(* A random stage with arbitrary topology (any earlier node may be the
   parent, not only chains), 1 to 80 nodes and 0 to 4 taps anywhere —
   the root included, so n = 1 and tapless stages occur. *)
let any_rc rng =
  let n = 1 + Random.State.int rng 80 in
  let parent = Array.make n (-1) in
  let res = Array.make n 0. in
  let cap = Array.make n 0. in
  for i = 1 to n - 1 do
    parent.(i) <-
      (if Random.State.int rng 3 = 0 then i - 1 else Random.State.int rng i);
    res.(i) <- 5. +. Random.State.float rng 400.;
    cap.(i) <- 0.2 +. Random.State.float rng 8.
  done;
  cap.(0) <- 0.5 +. Random.State.float rng 5.;
  let taps =
    Array.init (Random.State.int rng 5) (fun k ->
        (Random.State.int rng n, Rcnet.Tap_sink k))
  in
  { Rcnet.parent; res; cap; taps; size = n }

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let same_results label a b =
  check_int (label ^ ": tap count") (Array.length a) (Array.length b);
  Array.iteri
    (fun k (d, s) ->
      let d', s' = b.(k) in
      if not (same_bits d d' && same_bits s s') then
        Alcotest.failf "%s tap %d: (%h, %h) vs (%h, %h)" label k d s d' s')
    a

let counters_delta f =
  let c0 = Tr.counters () in
  let r = f () in
  let c1 = Tr.counters () in
  ( r,
    ( c1.Tr.total_solves - c0.Tr.total_solves,
      c1.Tr.total_saved - c0.Tr.total_saved,
      c1.Tr.total_truncations - c0.Tr.total_truncations ) )

(* The pair against two single solves on fresh workspaces: identical
   (delay, slew) bits per lane and identical counter deltas. Returns the
   singles' per-lane counter deltas for callers that check which path
   the lanes took. *)
let check_pair_matches ?mode ?max_steps ?(cached = true) ~label rc (ra, sa)
    (rb, sb) =
  let fcache = if cached then Some (Tr.Fcache.create ()) else None in
  let single r_drv s_drv =
    counters_delta (fun () ->
        Tr.solve ?mode ?max_steps ?fcache ~ws:(Tr.workspace ()) rc ~r_drv
          ~s_drv)
  in
  let a, da = single ra sa in
  let b, db = single rb sb in
  let (pa, pb), dp =
    counters_delta (fun () ->
        Tr.solve_pair ?mode ?max_steps ?fcache
          ~ws:(Tr.workspace (), Tr.workspace ())
          rc ~r_drv:(ra, rb) ~s_drv:(sa, sb))
  in
  same_results (label ^ " lane a") a pa;
  same_results (label ^ " lane b") b pb;
  let sum (x1, y1, z1) (x2, y2, z2) = (x1 + x2, y1 + y2, z1 + z2) in
  let xs, ys, zs = sum da db and xp, yp, zp = dp in
  if not (xs = xp && ys = yp && zs = zp) then
    Alcotest.failf "%s: counter deltas (%d, %d, %d) vs pair (%d, %d, %d)"
      label xs ys zs xp yp zp;
  (da, db)

let modes =
  [| Tr.Fixed; Tr.Auto { max_mult = 32 }; Tr.Adaptive { mult = 8 } |]

(* Random topology, unequal drives, every mode (Auto pairs fine-only
   lanes and falls back where either lane coarsens). *)
let prop_pair_random =
  QCheck.Test.make ~name:"pair = two singles on random stages" ~count:300
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let rc = any_rc rng in
      let a = random_drive rng and b = random_drive rng in
      let mode = modes.(Random.State.int rng (Array.length modes)) in
      ignore
        (check_pair_matches ~mode ~label:(Printf.sprintf "seed %d" seed) rc a
           b);
      true)

(* Unequal drives on a fine-only stage: the lanes take different step
   counts, so one finishes alone on the single-lane kernel. *)
let test_pair_unequal_finish () =
  let rc = long_chain_rc 40 in
  let (sa, _, _), (sb, _, _) =
    check_pair_matches ~mode:Tr.Fixed ~label:"unequal" rc (60., 6.)
      (900., 30.)
  in
  check_bool (Printf.sprintf "lanes differ in steps (%d vs %d)" sa sb) true
    (sa > 0 && sb > sa)

(* A budget between the two lanes' step counts truncates only the slow
   lane; a budget under both truncates both. *)
let test_pair_truncation () =
  let rc = long_chain_rc 40 in
  let a = (60., 6.) and b = (900., 30.) in
  let (sa, _, _), (sb, _, _) =
    check_pair_matches ~mode:Tr.Fixed ~label:"full" rc a b
  in
  let (_, _, ta), (_, _, tb) =
    check_pair_matches ~mode:Tr.Fixed ~max_steps:((sa + sb) / 2)
      ~label:"one truncates" rc a b
  in
  check_int "fast lane completes" 0 ta;
  check_int "slow lane truncates" 1 tb;
  let (_, _, tb'), (_, _, ta') =
    check_pair_matches ~mode:Tr.Fixed ~max_steps:((sa + sb) / 2)
      ~label:"slow lane first" rc b a
  in
  check_bool "lane order does not matter" true (ta' = 0 && tb' = 1);
  let (_, _, ta), (_, _, tb) =
    check_pair_matches ~mode:Tr.Fixed ~max_steps:(sa / 2)
      ~label:"both truncate" rc a b
  in
  check_int "both truncate" 2 (ta + tb)

(* Auto resolves the rate per lane from the driver: a weak driver makes
   the stage slow enough to coarsen while a strong one stays fine-only,
   so the pair must fall back to two single marches. *)
let test_pair_one_adaptive () =
  let rc =
    { Rcnet.parent = [| -1; 0; 1; 2 |]; res = [| 0.; 20.; 20.; 20. |];
      cap = [| 2.; 3.; 3.; 3. |];
      taps = [| (3, Rcnet.Tap_sink 0); (1, Rcnet.Tap_sink 1) |]; size = 4 }
  in
  let mode = Tr.Auto { max_mult = 32 } in
  let (_, saved_a, _), (_, saved_b, _) =
    check_pair_matches ~mode ~label:"fine + adaptive" rc (20., 5.)
      (8000., 5.)
  in
  check_int "strong lane is fine-only" 0 saved_a;
  check_bool "weak lane coarsens" true (saved_b > 0);
  let (_, saved_a, _), (_, saved_b, _) =
    check_pair_matches ~mode ~label:"adaptive + fine" rc (8000., 5.)
      (20., 5.)
  in
  check_bool "lane order does not matter" true (saved_a > 0 && saved_b = 0)

(* ---------- multi-rate pairs ---------- *)

(* Which multi-rate situations a random pair exercised. A lane counts as
   coarse when its single march committed coarse windows (saved > 0). *)
type coverage = {
  mutable equal_rates : int;      (* both coarse at one rate *)
  mutable unequal_rates : int;    (* both coarse at different rates *)
  mutable fine_and_coarse : int;  (* one fine-only lane, one coarse *)
  mutable rewind_vs_window : int; (* a lane rewinds past the other's lead-in *)
  mutable trunc_a : int;          (* a multi-rate lane a truncates *)
  mutable trunc_b : int;          (* a multi-rate lane b truncates *)
  mutable uncached : int;         (* both coarse without an fcache *)
}

let step = Tr.default_step

(* When a lane's march leaves its fine lead-in (ps), from the controller's
   documented lead: the ramp plus four coarse windows. *)
let lead_end ~mult ~s_drv =
  let ramp = s_drv /. 0.8 in
  (ceil (ramp /. step) +. (4. *. float_of_int mult)) *. step

(* 50 % crossing times (ps) of a lane's finite results. *)
let t50s ~s_drv res =
  Array.to_list res
  |> List.filter_map (fun (d, _) ->
         if Float.is_finite d then Some (d +. (s_drv /. 0.8 /. 2.)) else None)

(* Some crossing of lane x fires inside one of its rewinds (after its
   lead-in) while lane y is past its own lead-in with a crossing still to
   come: y is marching coarse windows while x re-integrates at the fine
   step. *)
let rewinds_past x y =
  let (mx, sx, rx), (my, sy, ry) = (x, y) in
  let last_y = List.fold_left Float.max neg_infinity (t50s ~s_drv:sy ry) in
  List.exists
    (fun t ->
      t > lead_end ~mult:mx ~s_drv:sx && t > lead_end ~mult:my ~s_drv:sy
      && t < last_y)
    (t50s ~s_drv:sx rx)

(* Random stages whose lanes mostly coarsen: Auto at several caps or a
   fixed Adaptive rate, unequal drives, a step budget a quarter of the
   time and no fcache a third of the time. Every pair must match its two
   singles bit for bit and in counter deltas; [cov] tallies what the
   pair exercised. *)
let prop_pair_multirate cov =
  QCheck.Test.make ~name:"multi-rate pair = two singles" ~count:300
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let rc = any_rc rng in
      let scale = if Random.State.bool rng then 1. else 3. in
      let rc =
        { rc with Rcnet.cap = Array.map (fun c -> c *. scale) rc.Rcnet.cap }
      in
      (* A strong driver a third of the time, so Auto keeps some lanes
         fine-only. *)
      let drive () =
        let r, s = random_drive rng in
        if Random.State.int rng 3 = 0 then (r /. 20., s) else (r, s)
      in
      let ra, sa = drive () in
      let rb, sb = drive () in
      let mode =
        if Random.State.bool rng then
          Tr.Auto { max_mult = [| 16; 32; 64 |].(Random.State.int rng 3) }
        else Tr.Adaptive { mult = 12 + Random.State.int rng 30 }
      in
      let max_steps =
        if Random.State.int rng 4 = 0 then
          Some (20 + Random.State.int rng 3000)
        else None
      in
      let cached = Random.State.int rng 3 > 0 in
      let label = Printf.sprintf "seed %d" seed in
      let (_, saved_a, tr_a), (_, saved_b, tr_b) =
        check_pair_matches ~mode ?max_steps ~cached ~label rc (ra, sa)
          (rb, sb)
      in
      let mult_a = Tr.march_rate ~mode rc ~r_drv:ra
      and mult_b = Tr.march_rate ~mode rc ~r_drv:rb in
      let coarse_a = saved_a > 0 and coarse_b = saved_b > 0 in
      if coarse_a && coarse_b then begin
        if mult_a = mult_b then cov.equal_rates <- cov.equal_rates + 1
        else cov.unequal_rates <- cov.unequal_rates + 1;
        if not cached then cov.uncached <- cov.uncached + 1
      end;
      if (mult_a = 1 && coarse_b) || (coarse_a && mult_b = 1) then
        cov.fine_and_coarse <- cov.fine_and_coarse + 1;
      if mult_a > 1 && tr_a = 1 then cov.trunc_a <- cov.trunc_a + 1;
      if mult_b > 1 && tr_b = 1 then cov.trunc_b <- cov.trunc_b + 1;
      if coarse_a && coarse_b && max_steps = None then begin
        let res r s = Tr.solve ~mode rc ~r_drv:r ~s_drv:s in
        let la = (mult_a, sa, res ra sa) and lb = (mult_b, sb, res rb sb) in
        if rewinds_past la lb || rewinds_past lb la then
          cov.rewind_vs_window <- cov.rewind_vs_window + 1
      end;
      true)

let test_pair_multirate () =
  let cov =
    { equal_rates = 0; unequal_rates = 0; fine_and_coarse = 0;
      rewind_vs_window = 0; trunc_a = 0; trunc_b = 0; uncached = 0 }
  in
  QCheck.Test.check_exn ~rand:(Random.State.make [| 2027 |])
    (prop_pair_multirate cov);
  List.iter
    (fun (what, k) ->
      check_bool (Printf.sprintf "covers %s (%d cases)" what k) true (k >= 5))
    [ ("both coarse, equal rates", cov.equal_rates);
      ("both coarse, unequal rates", cov.unequal_rates);
      ("one fine lane, one coarse", cov.fine_and_coarse);
      ("a rewind while the other lane is in windows", cov.rewind_vs_window);
      ("lane a truncating at a coarse rate", cov.trunc_a);
      ("lane b truncating at a coarse rate", cov.trunc_b);
      ("both coarse without an fcache", cov.uncached) ]

(* Two coarse lanes at one rate, one truncating: the budget falls
   between the lanes' fine-step equivalents, in either lane order. *)
let test_pair_multirate_truncation () =
  let rc = long_chain_rc 120 in
  let mode = Tr.Adaptive { mult = 16 } in
  let a = (150., 10.) and b = (1500., 40.) in
  let (sa, saved_a, _), (sb, saved_b, _) =
    check_pair_matches ~mode ~label:"full" rc a b
  in
  check_bool "both lanes coarse" true (saved_a > 0 && saved_b > 0);
  let budget = ((sa + saved_a) + (sb + saved_b)) / 2 in
  let (_, _, ta), (_, _, tb) =
    check_pair_matches ~mode ~max_steps:budget ~label:"b truncates" rc a b
  in
  check_bool "only the slow lane truncates" true (ta = 0 && tb = 1);
  let (_, _, tb'), (_, _, ta') =
    check_pair_matches ~mode ~max_steps:budget ~label:"a truncates" rc b a
  in
  check_bool "lane order does not matter" true (ta' = 0 && tb' = 1)

(* A driver-side kernel failure mid-pair (a cached coarse factorisation
   of the wrong size under the stage's fingerprint) propagates out of
   [solve_pair]; both suspended lanes are unwound, and the workspaces
   still serve an exact pair afterwards. *)
let test_pair_raise () =
  let rc = long_chain_rc 60 and small = long_chain_rc 5 in
  let mode = Tr.Adaptive { mult = 16 } in
  let fcache = Tr.Fcache.create () in
  let fp = 42L in
  ignore (Tr.Fcache.get fcache ~fp rc ~step);
  List.iter
    (fun stp -> ignore (Tr.Fcache.get fcache ~fp small ~step:stp))
    [ step *. 16.; step *. 8.; step *. 4. ];
  let ws = (Tr.workspace (), Tr.workspace ()) in
  let run ?fp fcache =
    Tr.solve_pair ~mode ~fcache ?fp ~ws rc ~r_drv:(300., 900.)
      ~s_drv:(10., 30.)
  in
  (match run ~fp fcache with
  | _ -> Alcotest.fail "a mis-sized coarse factorisation must raise"
  | exception Invalid_argument _ -> ());
  let pa, pb = run (Tr.Fcache.create ()) in
  same_results "after a raise, lane a"
    (Tr.solve ~mode ~ws:(Tr.workspace ()) rc ~r_drv:300. ~s_drv:10.) pa;
  same_results "after a raise, lane b"
    (Tr.solve ~mode ~ws:(Tr.workspace ()) rc ~r_drv:900. ~s_drv:30.) pb

let test_pair_degenerate () =
  let one =
    { Rcnet.parent = [| -1 |]; res = [| 0. |]; cap = [| 6. |];
      taps = [| (0, Rcnet.Tap_sink 0) |]; size = 1 }
  in
  ignore
    (check_pair_matches ~mode:Tr.Fixed ~label:"n = 1" one (100., 8.)
       (400., 12.));
  let tapless = { (long_chain_rc 12) with Rcnet.taps = [||] } in
  let (sa, _, _), (sb, _, _) =
    check_pair_matches ~mode:Tr.Fixed ~label:"no taps" tapless (100., 8.)
      (400., 12.)
  in
  check_int "a tapless stage takes no steps" 0 (sa + sb);
  (match
     let ws = Tr.workspace () in
     Tr.solve_pair ~ws:(ws, ws) one ~r_drv:(1., 1.) ~s_drv:(1., 1.)
   with
  | _ -> Alcotest.fail "a shared workspace must be rejected"
  | exception Invalid_argument _ -> ())

let () =
  Alcotest.run "transient-adaptive"
    [
      ( "accuracy",
        [
          Alcotest.test_case "vs fixed 0.5ps reference" `Quick
            test_accuracy_default_step;
          Alcotest.test_case "vs fixed 0.1ps reference" `Quick
            test_accuracy_fine_reference;
        ] );
      ( "budget",
        [
          Alcotest.test_case "auto saves solves" `Quick test_auto_saves_solves;
          Alcotest.test_case "counters" `Quick test_counters;
          Alcotest.test_case "truncation signal" `Quick
            test_truncation_signalled;
        ] );
      ( "plumbing",
        [
          Alcotest.test_case "workspace reuse" `Quick
            test_workspace_reuse_identical;
          Alcotest.test_case "fcache" `Quick test_fcache_identical_and_bounded;
          Alcotest.test_case "step epsilon" `Quick test_step_epsilon_match;
        ] );
      ( "pair",
        [
          QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 2026 |])
            prop_pair_random;
          Alcotest.test_case "unequal finish" `Quick test_pair_unequal_finish;
          Alcotest.test_case "truncation" `Quick test_pair_truncation;
          Alcotest.test_case "one lane adaptive" `Quick test_pair_one_adaptive;
          Alcotest.test_case "n = 1 and no taps" `Quick test_pair_degenerate;
          Alcotest.test_case "multi-rate = two singles" `Quick
            test_pair_multirate;
          Alcotest.test_case "multi-rate truncation" `Quick
            test_pair_multirate_truncation;
          Alcotest.test_case "a raising pair unwinds" `Quick test_pair_raise;
        ] );
    ]

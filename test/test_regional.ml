(* Regional flow: partition balance/coverage properties, regions=1
   bit-identity with the monolithic flow, stitched-vs-monolithic quality
   oracle, worker-count determinism, POLISH-checkpoint fast resume, and
   deadline incidents inside STITCH and POLISH. *)

open Geometry
module Tree = Ctree.Tree
module Ev = Analysis.Evaluator
module Flow = Core.Flow
module Partition = Core.Partition

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let tech = Tech.default45 ()

(* Small round budget keeps the flows fast; mixed parities exercise the
   polarity bookkeeping across the graft. *)
let config = { Core.Config.default with Core.Config.max_rounds = 25 }

let random_sinks seed n span =
  let rng = Suite.Rng.create seed in
  Array.init n (fun i ->
      { Dme.Zst.pos =
          Point.make (Suite.Rng.int rng span) (Suite.Rng.int rng span);
        cap = 5. +. (Suite.Rng.float rng *. 25.); parity = i mod 2;
        label = Printf.sprintf "s%d" i })

let source = Point.make 0 1_500_000

let temp_dir prefix =
  let d = Filename.temp_file prefix "" in
  Sys.remove d;
  Core.Persist.mkdir_p d;
  d

(* ---------- partition properties ---------- *)

let test_partition_coverage () =
  List.iter
    (fun (seed, n, regions) ->
      let sinks = random_sinks seed n 3_000_000 in
      let parts = Partition.split ~regions sinks in
      check_int
        (Printf.sprintf "n=%d r=%d region count" n regions)
        (min regions n) (Array.length parts);
      Array.iter
        (fun cell ->
          check_bool "non-empty" true (Array.length cell > 0);
          check_bool "sorted" true
            (Array.for_all Fun.id
               (Array.init
                  (Array.length cell - 1)
                  (fun i -> cell.(i) < cell.(i + 1)))))
        parts;
      (* The cells partition [0, n): disjoint and covering. *)
      let seen = Array.make n 0 in
      Array.iter (Array.iter (fun i -> seen.(i) <- seen.(i) + 1)) parts;
      check_bool "exact cover" true (Array.for_all (( = ) 1) seen);
      (* Determinism: same input, same partition. *)
      let again = Partition.split ~regions sinks in
      check_bool "deterministic" true (parts = again))
    [ (11, 40, 2); (12, 97, 3); (13, 97, 4); (14, 256, 7); (15, 300, 8);
      (16, 5, 8) (* regions clamped to n *) ]

let test_partition_balance () =
  (* Power-of-two splits: each bisection level misses the capacitance
     target by at most one sink, so a region's share of the total is off
     by at most [depth] maximum sink caps. *)
  List.iter
    (fun (seed, n, regions, depth) ->
      let sinks = random_sinks seed n 3_000_000 in
      let parts = Partition.split ~regions sinks in
      let cap idxs =
        Array.fold_left (fun a i -> a +. sinks.(i).Dme.Zst.cap) 0. idxs
      in
      let total = cap (Array.init n Fun.id) in
      let max_cap =
        Array.fold_left (fun a s -> Float.max a s.Dme.Zst.cap) 0. sinks
      in
      let share = total /. float_of_int regions in
      let slack = float_of_int depth *. max_cap in
      Array.iteri
        (fun k cell ->
          let c = cap cell in
          check_bool
            (Printf.sprintf "n=%d r=%d region %d cap %.1f within %.1f±%.1f"
               n regions k c share slack)
            true
            (Float.abs (c -. share) <= slack))
        parts)
    [ (21, 128, 2, 1); (22, 200, 4, 2); (23, 333, 8, 3) ]

(* ---------- regions=1 delegates bit-identically ---------- *)

let test_regions_one_identity () =
  let sinks = random_sinks 77 60 2_500_000 in
  let mono = Flow.run ~config ~tech ~source sinks in
  let reg =
    Flow.run_regional
      ~config:{ config with Core.Config.regions = 1 }
      ~tech ~source sinks
  in
  check_bool "r_stitch is None" true (reg.Flow.r_stitch = None);
  check_bool "tree digest identical" true
    (Tree.digest reg.Flow.r_flow.Flow.tree = Tree.digest mono.Flow.tree);
  check_bool "skew bit-identical" true
    (Int64.bits_of_float reg.Flow.r_flow.Flow.final.Ev.skew
    = Int64.bits_of_float mono.Flow.final.Ev.skew);
  check_int "monolithic trace" 5 (List.length reg.Flow.r_flow.Flow.trace)

(* ---------- stitched-vs-monolithic oracle ---------- *)

let test_stitched_oracle () =
  let n = 240 in
  let sinks = random_sinks 4040 n 4_000_000 in
  let mono = Flow.run ~config ~tech ~source sinks in
  let reg =
    Flow.run_regional
      ~config:{ config with Core.Config.regions = 4 }
      ~tech ~source sinks
  in
  let r = reg.Flow.r_flow in
  Alcotest.(check (list string))
    "stitched tree valid" [] (Ctree.Validate.check r.Flow.tree);
  (* Every original sink survives the graft, exactly once, and no
     pseudo-sink leaks into the stitched tree. *)
  let labels = Hashtbl.create n in
  Array.iter
    (fun id ->
      match (Tree.node r.Flow.tree id).Tree.kind with
      | Tree.Sink s ->
        check_bool
          (Printf.sprintf "label %S not duplicated" s.Tree.label)
          false
          (Hashtbl.mem labels s.Tree.label);
        Hashtbl.replace labels s.Tree.label ()
      | _ -> Alcotest.fail "non-sink in Tree.sinks")
    (Tree.sinks r.Flow.tree);
  check_int "all sinks present" n (Hashtbl.length labels);
  Array.iter
    (fun s -> check_bool s.Dme.Zst.label true (Hashtbl.mem labels s.Dme.Zst.label))
    sinks;
  (* Quality: the stitched result lands in the same skew class as the
     monolithic flow — the polish must have repaid the inter-region
     imbalance (which starts out at tens of ps). *)
  check_bool "skew finite" true (Float.is_finite r.Flow.final.Ev.skew);
  check_bool
    (Printf.sprintf "stitched skew %.3f vs monolithic %.3f"
       r.Flow.final.Ev.skew mono.Flow.final.Ev.skew)
    true
    (r.Flow.final.Ev.skew <= mono.Flow.final.Ev.skew +. 10.);
  (* The stitch report matches the partition. *)
  match reg.Flow.r_stitch with
  | None -> Alcotest.fail "no stitch report on a 4-region run"
  | Some st ->
    check_int "four regions" 4 (List.length st.Flow.st_regions);
    check_int "region sinks sum" n
      (List.fold_left
         (fun a (rr : Flow.region_report) -> a + rr.Flow.rg_sinks)
         0 st.Flow.st_regions);
    List.iter
      (fun (rr : Flow.region_report) ->
        check_bool "region skew finite" true (Float.is_finite rr.Flow.rg_skew))
      st.Flow.st_regions;
    check_bool "trace carries STITCH+POLISH" true
      (List.map (fun (t : Flow.trace_entry) -> t.Flow.step) r.Flow.trace
      = [ Flow.Stitch; Flow.Polish ])

(* ---------- worker-count determinism ---------- *)

let test_worker_determinism () =
  let sinks = random_sinks 505 150 3_000_000 in
  let cfg = { config with Core.Config.regions = 3 } in
  let a = Flow.run_regional ~config:cfg ~jobs:0 ~tech ~source sinks in
  let b = Flow.run_regional ~config:cfg ~jobs:2 ~tech ~source sinks in
  check_bool "digest independent of workers" true
    (Tree.digest a.Flow.r_flow.Flow.tree = Tree.digest b.Flow.r_flow.Flow.tree);
  check_bool "skew bit-identical" true
    (Int64.bits_of_float a.Flow.r_flow.Flow.final.Ev.skew
    = Int64.bits_of_float b.Flow.r_flow.Flow.final.Ev.skew)

(* ---------- checkpoint / resume ---------- *)

let test_regional_resume () =
  let sinks = random_sinks 909 120 3_000_000 in
  let cfg = { config with Core.Config.regions = 3 } in
  let dir = temp_dir "contango_regional" in
  let streamed = ref [] in
  let on_step e = streamed := e :: !streamed in
  let a =
    Flow.run_regional ~config:cfg ~on_step ~checkpoint_dir:dir ~tech ~source
      sinks
  in
  let steps r = List.map (fun e -> e.Flow.step) r.Flow.r_flow.Flow.trace in
  check_bool "regional trace is STITCH, POLISH" true
    (steps a = [ Flow.Stitch; Flow.Polish ]);
  check_bool "streamed rows equal the trace" true
    (List.rev !streamed = a.Flow.r_flow.Flow.trace);
  (* Layout: one subdirectory per region, one for the top flow, and the
     stitched POLISH checkpoint at the root. *)
  List.iter
    (fun sub ->
      check_bool (sub ^ " checkpointed") true
        (Sys.file_exists
           (Flow.Checkpoint.path ~dir:(Filename.concat dir sub) Flow.Bwsn)))
    [ "region_0"; "region_1"; "region_2"; "top" ];
  check_bool "POLISH checkpoint written" true
    (Sys.file_exists (Flow.Checkpoint.path ~dir Flow.Polish));
  (* Fast resume: the POLISH checkpoint short-circuits the whole run to
     a bit-identical result. *)
  streamed := [];
  let b =
    Flow.run_regional ~config:cfg ~on_step ~checkpoint_dir:dir ~resume:true
      ~tech ~source sinks
  in
  check_bool "fast resume skips the stitch report" true
    (b.Flow.r_stitch = None);
  check_bool "resumed rows streamed" true
    (List.rev !streamed = b.Flow.r_flow.Flow.trace);
  check_bool "resumed trace is STITCH, POLISH" true (steps b = steps a);
  let bits = Int64.bits_of_float in
  List.iter2
    (fun (ea : Flow.trace_entry) (eb : Flow.trace_entry) ->
      let name = Flow.step_name eb.Flow.step in
      check_bool (name ^ " metrics bit-identical") true
        (bits eb.Flow.skew = bits ea.Flow.skew
        && bits eb.Flow.clr = bits ea.Flow.clr
        && bits eb.Flow.t_max = bits ea.Flow.t_max);
      check_bool (name ^ " per-step counters zero") true
        (eb.Flow.cache_hits = 0 && eb.Flow.cache_misses = 0
        && eb.Flow.step_seconds = 0. && eb.Flow.kernel_solves = 0
        && eb.Flow.kernel_saved = 0 && eb.Flow.kernel_truncations = 0
        && eb.Flow.attempts = 0 && eb.Flow.accepts = 0))
    a.Flow.r_flow.Flow.trace b.Flow.r_flow.Flow.trace;
  check_bool "resumed digest identical" true
    (Tree.digest b.Flow.r_flow.Flow.tree = Tree.digest a.Flow.r_flow.Flow.tree);
  check_bool "resumed skew bit-identical" true
    (Int64.bits_of_float b.Flow.r_flow.Flow.final.Ev.skew
    = Int64.bits_of_float a.Flow.r_flow.Flow.final.Ev.skew);
  (* Losing the POLISH checkpoint still resumes from the per-region and
     top checkpoints and re-derives the same stitched tree. *)
  Sys.remove (Flow.Checkpoint.path ~dir Flow.Polish);
  let c =
    Flow.run_regional ~config:cfg ~checkpoint_dir:dir ~resume:true ~tech
      ~source sinks
  in
  check_bool "re-derived digest identical" true
    (Tree.digest c.Flow.r_flow.Flow.tree = Tree.digest a.Flow.r_flow.Flow.tree)

(* ---------- deadlines inside STITCH and POLISH ---------- *)

(* A deadline that passes at the start of STITCH or POLISH records that
   stage's incident before the run gives up. The callbacks sleep past
   the deadline at the chosen point: when the top flow's incident is
   forwarded (every flow hits one injected failure, so that is incident
   [regions + 1]) or when the STITCH row is emitted. *)
let test_stitch_polish_deadline () =
  let sinks = random_sinks 313 40 3_000_000 in
  let cfg =
    { config with
      Core.Config.regions = 2; speculation = 1;
      inject_numerical_failures = 1; stitch_skew_ps = -1. }
  in
  let now = Core.Monoclock.now in
  let t0 = now () in
  ignore (Flow.run_regional ~config:cfg ~tech ~source sinks);
  let budget = (2. *. (now () -. t0)) +. 0.2 in
  let last_incident ~sleep_at_incident ~sleep_at_step =
    let deadline = now () +. budget in
    let sleep () = Unix.sleepf (Float.max 0. (deadline -. now ()) +. 0.01) in
    let incidents = ref [] in
    let on_incident inc =
      incidents := inc :: !incidents;
      if List.length !incidents = sleep_at_incident then sleep ()
    in
    let on_step (e : Flow.trace_entry) =
      if Some e.Flow.step = sleep_at_step then sleep ()
    in
    (match
       Flow.run_regional
         ~config:{ cfg with Core.Config.deadline = Some deadline }
         ~on_incident ~on_step ~tech ~source sinks
     with
    | _ -> Alcotest.fail "the run finished past its deadline"
    | exception Core.Ivc.Deadline_exceeded -> ());
    List.hd !incidents
  in
  List.iter
    (fun (name, step, inc) ->
      check_bool (name ^ " incident") true
        (inc.Flow.inc_step = step && inc.Flow.inc_action = "deadline"))
    [ ("STITCH", Flow.Stitch,
       last_incident ~sleep_at_incident:3 ~sleep_at_step:None);
      ("POLISH", Flow.Polish,
       last_incident ~sleep_at_incident:0 ~sleep_at_step:(Some Flow.Stitch)) ]

let () =
  Alcotest.run "regional"
    [
      ("partition",
       [
         Alcotest.test_case "coverage + determinism" `Quick
           test_partition_coverage;
         Alcotest.test_case "capacity balance" `Quick test_partition_balance;
       ]);
      ("flow",
       [
         Alcotest.test_case "regions=1 bit-identity" `Quick
           test_regions_one_identity;
         Alcotest.test_case "stitched vs monolithic oracle" `Slow
           test_stitched_oracle;
         Alcotest.test_case "worker determinism" `Slow
           test_worker_determinism;
       ]);
      ("resume",
       [ Alcotest.test_case "polish fast-path" `Slow test_regional_resume ]);
      ("deadline",
       [ Alcotest.test_case "STITCH and POLISH record incidents" `Slow
           test_stitch_polish_deadline ]);
    ]

(* Independent oracle for the evaluator's propagation. Every engine
   evaluates over the [Rcflat] stage pool, and the stateless [evaluate]
   and the incremental session share that one propagation, so comparing
   the two cannot catch a fault in it. This file keeps a second
   implementation: a plain tree walk over the reference extraction
   ([Rcnet.stages]) that reads drivers and loads straight off the tree's
   nodes and chains each buffer's launch from its input arrival.
   [Evaluator.evaluate] — and a session driven through journaled edits —
   must match it bit for bit, per node and on skew/CLR. *)

open Geometry
module Tree = Ctree.Tree
module Ev = Analysis.Evaluator
module Rcnet = Analysis.Rcnet

let check_bool = Alcotest.(check bool)

(* ---------- reference propagation ---------- *)

(* The inverter's internal switching ramp on a ¼ ps grid (the
   evaluator's documented drive model). *)
let ramp_slew in_slew =
  let raw = Float.max 2.0 (0.15 *. in_slew) in
  Float.round (raw *. 4.) /. 4.

type ref_run = {
  r_corner : Tech.Corner.t;
  r_transition : Ev.transition;
  r_latency : float array;
  r_slew : float array;
}

(* One corner × source-transition pass: walk the stages in extraction
   order, solve each with [solve], and launch every tapped buffer's
   stage from its input arrival plus its corner-scaled gate delay. *)
let reference_pass ~solve tree stages (corner : Tech.Corner.t) transition =
  let tech = Tree.tech tree in
  let n = Tree.size tree in
  let latency = Array.make n nan and slew = Array.make n nan in
  let launch = Array.make n nan in
  let out_tr = Array.make n transition in
  let in_slew = Array.make n tech.Tech.source_slew in
  launch.(Tree.root tree) <- 0.;
  List.iter
    (fun { Rcnet.driver; rc } ->
      let tr = out_tr.(driver) in
      let r_base, s_drv =
        match (Tree.node tree driver).Tree.kind with
        | Tree.Source -> (tech.Tech.source_r, tech.Tech.source_slew)
        | Tree.Buffer b ->
          ( (match tr with
            | Ev.Rise -> Tech.Composite.r_up b
            | Ev.Fall -> Tech.Composite.r_down b),
            ramp_slew in_slew.(driver) )
        | Tree.Internal | Tree.Sink _ -> Alcotest.fail "stage driver kind"
      in
      let r_drv = r_base *. corner.Tech.Corner.r_scale in
      let results = solve rc ~r_drv ~s_drv in
      Array.iteri
        (fun k (_, tap) ->
          let d, s = results.(k) in
          let arrival = launch.(driver) +. d in
          match tap with
          | Rcnet.Tap_sink id ->
            latency.(id) <- arrival;
            slew.(id) <- s
          | Rcnet.Tap_buffer id -> (
            latency.(id) <- arrival;
            slew.(id) <- s;
            match (Tree.node tree id).Tree.kind with
            | Tree.Buffer b ->
              let gate_delay =
                (Tech.Composite.d_intrinsic b *. corner.Tech.Corner.d_scale)
                +. (Tech.Composite.slew_coeff b *. s)
              in
              launch.(id) <- arrival +. gate_delay;
              in_slew.(id) <- s;
              out_tr.(id) <-
                (if Tech.Composite.inverting b then Ev.flip tr else tr)
            | _ -> Alcotest.fail "buffer tap on a non-buffer"))
        rc.Rcnet.taps)
    stages;
  { r_corner = corner; r_transition = transition; r_latency = latency;
    r_slew = slew }

let reference ~solve tree =
  let stages = Rcnet.stages ~seg_len:20_000 tree in
  List.concat_map
    (fun c ->
      List.map (reference_pass ~solve tree stages c) [ Ev.Rise; Ev.Fall ])
    (Tree.tech tree).Tech.corners

(* Skew and CLR from the reference runs: sink spread at the first
   (nominal) corner, and the slowest corner's latest sink minus the
   nominal corner's earliest, worst over both source transitions. *)
let spread tree (r : ref_run) =
  Array.fold_left
    (fun (lo, hi) s ->
      (Float.min lo r.r_latency.(s), Float.max hi r.r_latency.(s)))
    (infinity, neg_infinity) (Tree.sinks tree)

let skew_clr tree runs =
  let corners = (Tree.tech tree).Tech.corners in
  let nominal = List.hd corners in
  let slow =
    List.fold_left
      (fun acc (c : Tech.Corner.t) ->
        if c.Tech.Corner.r_scale > acc.Tech.Corner.r_scale then c else acc)
      nominal corners
  in
  let find (c : Tech.Corner.t) tr =
    List.find
      (fun r ->
        r.r_corner.Tech.Corner.name = c.Tech.Corner.name
        && r.r_transition = tr)
      runs
  in
  let per tr =
    let lo, hi = spread tree (find nominal tr) in
    let _, slow_hi = spread tree (find slow tr) in
    (hi -. lo, slow_hi -. lo)
  in
  let skew_r, clr_r = per Ev.Rise and skew_f, clr_f = per Ev.Fall in
  (Float.max skew_r skew_f, Float.max clr_r clr_f)

(* ---------- bitwise comparison ---------- *)

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let same_array a b =
  Array.length a = Array.length b
  && Array.for_all2 same_bits a b

let check_matches label tree refs (ev : Ev.t) =
  check_bool (label ^ ": run count") true
    (List.length refs = List.length ev.Ev.runs);
  List.iter2
    (fun r (run : Ev.run) ->
      let tag =
        Printf.sprintf "%s: %s %s" label r.r_corner.Tech.Corner.name
          (match r.r_transition with Ev.Rise -> "rise" | Ev.Fall -> "fall")
      in
      check_bool (tag ^ " order") true
        (r.r_corner.Tech.Corner.name = run.Ev.corner.Tech.Corner.name
        && r.r_transition = run.Ev.transition);
      check_bool (tag ^ " latency") true
        (same_array r.r_latency run.Ev.latency);
      check_bool (tag ^ " slew") true (same_array r.r_slew run.Ev.slew))
    refs ev.Ev.runs;
  let skew, clr = skew_clr tree refs in
  check_bool (label ^ ": skew") true (same_bits skew ev.Ev.skew);
  check_bool (label ^ ": clr") true (same_bits clr ev.Ev.clr)

(* ---------- seeded trees ---------- *)

(* Three corners, and a non-inverting buffer next to the two inverters,
   so launch chaining sees both edge polarities per stage. *)
let tech =
  let base = Tech.default45 () in
  Tech.make ~wires:base.Tech.wires ~devices:base.Tech.devices
    ~slew_limit:100. ~cap_limit:infinity
    ~corners:
      [ Tech.Corner.fast; Tech.Corner.make ~name:"typ@1.1V" ~vdd:1.1 ();
        Tech.Corner.slow ]
    ()

let plain_buffer =
  Tech.Device.make ~name:"BUF" ~c_in:6.0 ~c_out:9.0 ~r_up:300. ~r_down:260.
    ~d_intrinsic:24.0 ~slew_coeff:0.08 ~inverting:false ()

let drivers =
  [| Tech.Composite.make Tech.Device.small_inverter 4;
     Tech.Composite.make Tech.Device.small_inverter 12;
     Tech.Composite.make Tech.Device.large_inverter 1;
     Tech.Composite.make plain_buffer 2;
     Tech.Composite.make plain_buffer 6 |]

(* A random tree of internal nodes, buffers and sinks grown from the
   source; every non-sink leaf gets a sink so each stage drives a load. *)
let random_tree seed =
  let rng = Random.State.make [| seed |] in
  let t = Tree.create ~tech ~source_pos:(Point.make 0 0) in
  let nwires = Array.length tech.Tech.wires in
  let parents = ref [ Tree.root t ] in
  let pick l = List.nth l (Random.State.int rng (List.length l)) in
  let child parent kind =
    let p = (Tree.node t parent).Tree.pos in
    let pos =
      Point.make
        (p.Point.x + 20_000 + Random.State.int rng 260_000)
        (p.Point.y - 130_000 + Random.State.int rng 260_000)
    in
    Tree.add_node t ~kind ~pos ~parent
      ~wire_class:(Random.State.int rng nwires) ()
  in
  let sink parent =
    let cap = 5. +. Random.State.float rng 25. in
    let label = Printf.sprintf "s%d" (Tree.size t) in
    ignore (child parent (Tree.Sink { Tree.cap; parity = 0; label }))
  in
  for _ = 1 to 30 + Random.State.int rng 30 do
    let parent = pick !parents in
    match Random.State.int rng 10 with
    | 0 | 1 | 2 -> parents := child parent Tree.Internal :: !parents
    | 3 | 4 | 5 ->
      let b = drivers.(Random.State.int rng (Array.length drivers)) in
      parents := child parent (Tree.Buffer b) :: !parents
    | _ -> sink parent
  done;
  List.iter
    (fun id -> if (Tree.node t id).Tree.children = [] then sink id)
    !parents;
  t

let seeds = [ 11; 12; 13; 14; 15 ]

(* ---------- stateless evaluation ---------- *)

type stage_solve =
  Rcnet.t -> r_drv:float -> s_drv:float -> (float * float) array

type engine = {
  name : string;
  engine : Ev.engine;
  solve : stage_solve;  (* the stage solve [evaluate] runs *)
  session_solve : stage_solve;  (* the one a session runs *)
}

let spice_solve rc ~r_drv ~s_drv = Analysis.Transient.solve rc ~r_drv ~s_drv

let engines =
  [ { name = "spice"; engine = Ev.Spice; solve = spice_solve;
      session_solve = spice_solve };
    { name = "arnoldi"; engine = Ev.Arnoldi; solve = Analysis.Moments.solve;
      (* sessions take Newton-polished crossings (see moments.mli) *)
      session_solve = Analysis.Moments.solve_fast };
    { name = "elmore"; engine = Ev.Elmore_model; solve = Analysis.Elmore.solve;
      session_solve = Analysis.Elmore.solve } ]

let test_evaluate e () =
  List.iter
    (fun seed ->
      let tree = random_tree seed in
      check_bool "tree has buffers" true
        (Array.length (Tree.buffer_ids tree) > 0);
      check_matches
        (Printf.sprintf "%s seed %d" e.name seed)
        tree
        (reference ~solve:e.solve tree)
        (Ev.evaluate ~engine:e.engine ~seg_len:20_000 tree))
    seeds

(* ---------- journaled session (dirty path) ---------- *)

(* A value-only edit: snake, wire class or buffer rescale. *)
let random_value_edit rng tree =
  let id = 1 + Random.State.int rng (Tree.size tree - 1) in
  let nwires = Array.length tech.Tech.wires in
  match (Random.State.int rng 3, (Tree.node tree id).Tree.kind) with
  | 0, _ -> Tree.set_snake tree id (Random.State.int rng 150_000)
  | 1, _ -> Tree.set_wire_class tree id (Random.State.int rng nwires)
  | _, Tree.Buffer b ->
    let f = 0.5 +. Random.State.float rng 1.5 in
    Tree.set_buffer tree id (Tech.Composite.scale b f)
  | _, _ -> Tree.set_snake tree id 0

let test_session e () =
  List.iter
    (fun seed ->
      let tree = random_tree seed in
      let rng = Random.State.make [| seed; 7 |] in
      let session =
        Ev.Incremental.create ~engine:e.engine ~seg_len:20_000 tree
      in
      ignore (Ev.Incremental.refresh session);
      for step = 1 to 12 do
        let j = Tree.Journal.start tree in
        for _ = 1 to 1 + Random.State.int rng 3 do
          random_value_edit rng tree
        done;
        let edits = Core.Speculate.hint_of_journal j in
        Tree.Journal.commit j;
        check_bool "edit is a dirty hint" true (Option.is_some edits);
        check_matches
          (Printf.sprintf "%s seed %d step %d" e.name seed step)
          tree
          (reference ~solve:e.session_solve tree)
          (Ev.Incremental.refresh ?edits session)
      done;
      check_bool
        (Printf.sprintf "%s seed %d took the dirty path" e.name seed)
        true
        ((Ev.Incremental.stats session).Ev.dirty_refreshes > 0))
    seeds

let () =
  Alcotest.run "propagation"
    [
      ( "evaluate",
        List.map
          (fun e -> Alcotest.test_case e.name `Quick (test_evaluate e))
          engines );
      ( "session",
        List.map
          (fun e -> Alcotest.test_case e.name `Quick (test_session e))
          engines );
    ]

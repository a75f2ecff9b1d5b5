(* Independent oracle for the evaluator's propagation. Every engine
   evaluates over the [Rcflat] stage pool, and the stateless [evaluate]
   and the incremental session share that one propagation, so comparing
   the two cannot catch a fault in it. [Propagation_oracle] keeps a
   second implementation: a plain tree walk over the reference
   extraction ([Rcnet.stages]). [Evaluator.evaluate] — and a session
   driven through journaled edits — must match it bit for bit, per node
   and on skew/CLR. *)

open Geometry
open Propagation_oracle

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
        (reference ~seg_len:20_000 ~solve:e.solve tree)
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
          (reference ~seg_len:20_000 ~solve:e.session_solve tree)
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

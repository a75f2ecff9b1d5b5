open Geometry
module Tree = Ctree.Tree

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_f = Alcotest.(check (float 1e-6))

let tech = Tech.default45 ()
let buf8 = Tech.Composite.make Tech.Device.small_inverter 8

let sink ?(cap = 10.) ?(parity = 0) label = Tree.Sink { Tree.cap; parity; label }

(* source --1mm-- internal --1mm-- sinkA
                         \--2mm(L)-- sinkB *)
let small_tree () =
  let t = Tree.create ~tech ~source_pos:(Point.make 0 0) in
  let mid =
    Tree.add_node t ~kind:Tree.Internal ~pos:(Point.make 1_000_000 0)
      ~parent:(Tree.root t) ()
  in
  let a =
    Tree.add_node t ~kind:(sink "a") ~pos:(Point.make 2_000_000 0) ~parent:mid ()
  in
  let b =
    Tree.add_node t ~kind:(sink "b") ~pos:(Point.make 2_000_000 1_000_000)
      ~parent:mid ()
  in
  (t, mid, a, b)

let test_build () =
  let t, mid, a, b = small_tree () in
  check_int "size" 4 (Tree.size t);
  check_int "a geom" 1_000_000 (Tree.node t a).Tree.geom_len;
  check_int "b geom (L)" 2_000_000 (Tree.node t b).Tree.geom_len;
  check_int "mid children" 2 (List.length (Tree.node t mid).Tree.children);
  Alcotest.(check (list string)) "validate" [] (Ctree.Validate.check t);
  check_int "sinks" 2 (Array.length (Tree.sinks t));
  check_int "buffers" 0 (Array.length (Tree.buffer_ids t))

let test_orders () =
  let t, mid, a, b = small_tree () in
  let topo = Array.to_list (Tree.topo_order t) in
  check_int "topo length" 4 (List.length topo);
  check_bool "root first" true (List.hd topo = Tree.root t);
  (* parents before children *)
  let pos x = Option.get (List.find_index (fun i -> i = x) topo) in
  check_bool "mid before a" true (pos mid < pos a);
  check_bool "mid before b" true (pos mid < pos b);
  let post = Array.to_list (Tree.post_order t) in
  check_bool "root last in post" true
    (List.nth post (List.length post - 1) = Tree.root t)

let test_wire_len_snake () =
  let t, _, a, _ = small_tree () in
  let nd = Tree.node t a in
  nd.Tree.snake <- 500_000;
  check_int "electrical" 1_500_000 (Tree.wire_len nd);
  check_f "cap includes snake"
    (Tech.Wire.cap (Tree.wire_of t nd) 1_500_000)
    (Tree.wire_cap t nd)

let test_split_wire () =
  let t, _, a, _ = small_tree () in
  (Tree.node t a).Tree.snake <- 400_000;
  let m = Tree.split_wire t a ~at:250_000 in
  Alcotest.(check (list string)) "validate after split" [] (Ctree.Validate.check t);
  let mn = Tree.node t m and an = Tree.node t a in
  check_int "upper geom" 250_000 mn.Tree.geom_len;
  check_int "lower geom" 750_000 an.Tree.geom_len;
  (* proportional snake split preserves the total *)
  check_int "snake preserved" 400_000 (mn.Tree.snake + an.Tree.snake);
  check_bool "a under m" true (an.Tree.parent = m)

let test_split_l_wire () =
  let t, _, _, b = small_tree () in
  (* split in the middle of the L: 2mm wire, split at 1.5mm *)
  let m = Tree.split_wire t b ~at:1_500_000 in
  Alcotest.(check (list string)) "validate" [] (Ctree.Validate.check t);
  check_int "upper+lower = total" 2_000_000
    ((Tree.node t m).Tree.geom_len + (Tree.node t b).Tree.geom_len)

let test_point_along_wire () =
  let t, _, a, b = small_tree () in
  let p = Tree.point_along_wire t a 250_000 in
  check_int "straight wire x" 1_250_000 p.Point.x;
  (* L wire: first leg horizontal (XY bend) *)
  let q = Tree.point_along_wire t b 500_000 in
  check_int "L first leg x" 1_500_000 q.Point.x;
  check_int "L first leg y" 0 q.Point.y;
  let r = Tree.point_along_wire t b 1_500_000 in
  check_int "L second leg x" 2_000_000 r.Point.x;
  check_int "L second leg y" 500_000 r.Point.y

let test_insert_remove_buffer () =
  let t, _, a, _ = small_tree () in
  let bid = Tree.insert_buffer_on_wire t a ~at:500_000 ~buf:buf8 in
  check_int "one buffer" 1 (Array.length (Tree.buffer_ids t));
  let inv = Tree.inversions t in
  check_int "sink a inverted" 1 inv.(a);
  Tree.remove_buffer t bid;
  check_int "no buffers" 0 (Array.length (Tree.buffer_ids t));
  Alcotest.check_raises "remove non-buffer"
    (Invalid_argument "Tree.remove_buffer: not a buffer") (fun () ->
      Tree.remove_buffer t a)

let test_set_route () =
  let t, _, a, _ = small_tree () in
  let detour =
    [ Point.make 1_000_000 0; Point.make 1_000_000 300_000;
      Point.make 2_000_000 300_000; Point.make 2_000_000 0 ]
  in
  Tree.set_route t a detour;
  check_int "detour length" 1_600_000 (Tree.node t a).Tree.geom_len;
  Alcotest.(check (list string)) "validate" [] (Ctree.Validate.check t);
  (* Bad endpoints rejected. *)
  Alcotest.check_raises "bad route"
    (Invalid_argument "Tree.set_route: endpoints do not match parent/node")
    (fun () -> Tree.set_route t a [ Point.make 0 0; Point.make 5 5; (Tree.node t a).Tree.pos ])

let test_detach_reparent_compact () =
  let t, mid, a, b = small_tree () in
  Tree.detach t b;
  check_int "topo skips detached" 3 (Array.length (Tree.topo_order t));
  Tree.reparent t b ~new_parent:(Tree.root t);
  check_int "back to 4" 4 (Array.length (Tree.topo_order t));
  check_int "geom recomputed" (Point.dist (Point.make 0 0) (Point.make 2_000_000 1_000_000))
    (Tree.node t b).Tree.geom_len;
  (* Drop a whole subtree and compact. *)
  Tree.detach t mid;
  let t2, remap = Tree.compact t in
  check_int "compact size" 2 (Tree.size t2);
  check_bool "a dropped" true (remap.(a) = -1);
  check_bool "b kept" true (remap.(b) >= 0);
  Alcotest.(check (list string)) "validate compact" [] (Ctree.Validate.check t2)

let test_copy_assign () =
  let t, _, a, _ = small_tree () in
  let snapshot = Tree.copy t in
  (Tree.node t a).Tree.snake <- 999;
  ignore (Tree.insert_buffer_on_wire t a ~at:0 ~buf:buf8);
  check_bool "diverged" true (Tree.size t <> Tree.size snapshot);
  Tree.assign ~dst:t ~src:snapshot;
  check_int "restored size" 4 (Tree.size t);
  check_int "restored snake" 0 (Tree.node t a).Tree.snake

let test_subtree_sinks () =
  let t, mid, a, b = small_tree () in
  Alcotest.(check (list int)) "subtree of mid" [ a; b ] (Tree.subtree_sinks t mid);
  Alcotest.(check (list int)) "subtree of sink" [ a ] (Tree.subtree_sinks t a)

let test_add_node_errors () =
  let t, _, _, _ = small_tree () in
  Alcotest.check_raises "bad parent"
    (Invalid_argument "Tree.add_node: invalid parent 99") (fun () ->
      ignore (Tree.add_node t ~kind:Tree.Internal ~pos:Point.origin ~parent:99 ()));
  Alcotest.check_raises "short geom"
    (Invalid_argument "Tree.add_node: geom_len shorter than Manhattan distance")
    (fun () ->
      ignore
        (Tree.add_node t ~kind:Tree.Internal ~pos:(Point.make 5_000_000 0)
           ~parent:0 ~geom_len:10 ()))

let test_inversions_nested () =
  let t, mid, a, b = small_tree () in
  ignore mid;
  ignore (Tree.insert_buffer_on_wire t a ~at:200_000 ~buf:buf8);
  ignore (Tree.insert_buffer_on_wire t a ~at:100_000 ~buf:buf8);
  ignore (Tree.insert_buffer_on_wire t b ~at:500_000 ~buf:buf8);
  let inv = Tree.inversions t in
  check_int "a double inverted" 2 inv.(a);
  check_int "b single inverted" 1 inv.(b)

let test_split_routed_wire () =
  let t, _, a, _ = small_tree () in
  let detour =
    [ Point.make 1_000_000 0; Point.make 1_000_000 400_000;
      Point.make 2_000_000 400_000; Point.make 2_000_000 0 ]
  in
  Tree.set_route t a detour;
  let total = (Tree.node t a).Tree.geom_len in
  let m = Tree.split_wire t a ~at:700_000 in
  Alcotest.(check (list string)) "valid" [] (Ctree.Validate.check t);
  check_int "length preserved" total
    ((Tree.node t m).Tree.geom_len + (Tree.node t a).Tree.geom_len);
  (* the split point sits on the original polyline *)
  let sp = (Tree.node t m).Tree.pos in
  check_bool "split on detour" true
    (sp.Point.x = 1_000_000 || sp.Point.y = 400_000 || sp.Point.x = 2_000_000)

let test_point_along_routed_wire () =
  let t, _, a, _ = small_tree () in
  Tree.set_route t a
    [ Point.make 1_000_000 0; Point.make 1_000_000 300_000;
      Point.make 2_000_000 300_000; Point.make 2_000_000 0 ];
  let p = Tree.point_along_wire t a 150_000 in
  check_int "on first leg x" 1_000_000 p.Point.x;
  check_int "on first leg y" 150_000 p.Point.y;
  let q = Tree.point_along_wire t a 800_000 in
  check_int "on middle leg y" 300_000 q.Point.y

let test_assign_independence () =
  let t, _, a, _ = small_tree () in
  let snapshot = Tree.copy t in
  Tree.assign ~dst:t ~src:snapshot;
  (* mutating the snapshot afterwards must not leak into t *)
  (Tree.node snapshot a).Tree.snake <- 777;
  check_int "independent" 0 (Tree.node t a).Tree.snake

(* ---------- Stats ---------- *)

let test_stats () =
  let t, _, a, _ = small_tree () in
  ignore (Tree.insert_buffer_on_wire t a ~at:500_000 ~buf:buf8);
  let s = Ctree.Stats.compute t in
  check_int "wirelength" 4_000_000 s.Ctree.Stats.wirelength;
  check_int "sink count" 2 s.Ctree.Stats.sink_count;
  check_int "buffer count" 1 s.Ctree.Stats.buffer_count;
  check_int "buffer devices" 8 s.Ctree.Stats.buffer_devices;
  check_f "sink cap" 20. s.Ctree.Stats.sink_cap;
  check_f "buffer cin" (Tech.Composite.c_in buf8) s.Ctree.Stats.buffer_in_cap;
  check_f "total"
    (s.Ctree.Stats.wire_cap +. s.Ctree.Stats.sink_cap +. s.Ctree.Stats.buffer_in_cap)
    s.Ctree.Stats.total_cap

(* ---------- Validate catches corruption ---------- *)

let test_validate_catches () =
  let t, _, a, _ = small_tree () in
  (Tree.node t a).Tree.snake <- -5;
  check_bool "negative snake caught" true (Ctree.Validate.check t <> []);
  let t, _, a, _ = small_tree () in
  (Tree.node t a).Tree.geom_len <- 1;
  check_bool "short geom caught" true (Ctree.Validate.check t <> [])

(* ---------- Svg ---------- *)

let test_svg () =
  let t, _, a, _ = small_tree () in
  ignore (Tree.insert_buffer_on_wire t a ~at:500_000 ~buf:buf8);
  let svg = Ctree.Svg.render t in
  check_bool "is svg" true (String.length svg > 100);
  check_bool "open tag" true (String.sub svg 0 4 = "<svg");
  (* crosses for sinks, rect for buffer, circle for source *)
  let count_sub sub =
    let n = String.length sub in
    let rec go i acc =
      if i + n > String.length svg then acc
      else if String.sub svg i n = sub then go (i + 1) (acc + 1)
      else go (i + 1) acc
    in
    go 0 0
  in
  check_bool "has buffer rect" true (count_sub "fill=\"#3355cc\"" >= 1);
  check_bool "has source circle" true (count_sub "<circle" = 1);
  check_bool "has sink crosses" true (count_sub "<path" >= 2)

let test_gradient () =
  Alcotest.(check string) "red at no slack" "#dc0030"
    (Ctree.Svg.gradient ~lo:0. ~hi:10. 0.);
  Alcotest.(check string) "green at full slack" "#00aa30"
    (Ctree.Svg.gradient ~lo:0. ~hi:10. 10.)

let tree_qcheck =
  QCheck.Test.make
    ~name:"tree: random splits keep validity and total wirelength" ~count:100
    QCheck.(list_of_size (Gen.int_range 1 15) (int_range 1 99))
    (fun cuts ->
      let t, _, a, _ = small_tree () in
      let before = (Ctree.Stats.compute t).Ctree.Stats.wirelength in
      let target = ref a in
      List.iter
        (fun pct ->
          let nd = Tree.node t !target in
          let at = nd.Tree.geom_len * pct / 100 in
          target := Tree.split_wire t !target ~at)
        cuts;
      Ctree.Validate.check t = []
      && (Ctree.Stats.compute t).Ctree.Stats.wirelength = before)

(* ---------- journaled replay ---------- *)

let seeded_tree seed =
  let rng = Suite.Rng.create seed in
  let sinks =
    Array.init 30 (fun i ->
        { Dme.Zst.pos =
            Point.make (Suite.Rng.int rng 3_000_000)
              (Suite.Rng.int rng 3_000_000);
          cap = 5. +. (Suite.Rng.float rng *. 25.); parity = 0;
          label = Printf.sprintf "s%d" i })
  in
  let tree, _, _, _ =
    Core.Flow.initial_tree ~config:Core.Config.default ~tech
      ~source:(Point.make 0 1_500_000) sinks
  in
  tree

(* Value-only candidate closures of the wire and buffer passes, planned
   on [tree] the way their IVC rounds plan them. *)
let value_closures tree =
  let config = Core.Config.default in
  let ev = Analysis.Evaluator.evaluate ~engine:Analysis.Evaluator.Arnoldi tree in
  let slacks = Core.Slack.combined ~multicorner:true tree ev in
  let headrooms = Core.Probes.subtree_slew_headroom tree ev in
  let sens = Core.Probes.sensitivities tree in
  let count = ref 0 and added = ref 0 in
  List.concat_map
    (fun scale ->
      [ ( Printf.sprintf "wiresnaking @%g" scale,
          fun t ->
            Core.Wiresnaking.topdown_pass config t ~slacks ~headrooms ~sens
              ~correction:1. ~scale ~count ~added );
        ( Printf.sprintf "wiresizing @%g" scale,
          fun t ->
            Core.Wiresizing.downsizing_pass config t ~slacks ~headrooms ~sens
              ~correction:1. ~scale ~count );
        ( Printf.sprintf "buffer sizing @%g" scale,
          fun t -> Core.Buffer_sizing.speedup_pass config t ~slacks ~sens ~scale
        ) ])
    [ 1.; 0.25 ]

(* Replaying a closed value-only journal under a fresh journal is the
   same edit as running the closure: same content, same touched set, a
   consistent value-only journal, and a rollback that restores the
   base. *)
let test_journaled_replay () =
  List.iter
    (fun seed ->
      let tree = seeded_tree seed in
      let d0 = Tree.digest tree in
      List.iter
        (fun (name, apply) ->
          let what s = Printf.sprintf "seed %d %s: %s" seed name s in
          let j = Tree.Journal.start tree in
          apply tree;
          let d_apply = Tree.digest tree in
          let touched = Tree.Journal.touched j in
          let value_only = Tree.Journal.value_only j in
          check_bool (what "closure edits the tree") true (touched <> []);
          check_bool (what "closure is value-only") true value_only;
          Tree.Journal.rollback j;
          check_bool (what "probe rollback restores") true
            (Tree.digest tree = d0);
          let r = Tree.Journal.start tree in
          Tree.Journal.replay j ~onto:tree;
          check_bool (what "replay = closure") true (Tree.digest tree = d_apply);
          Alcotest.(check (list int)) (what "same touched set") touched
            (Tree.Journal.touched r);
          check_bool (what "replay stays value-only") value_only
            (Tree.Journal.value_only r);
          check_bool (what "replay journal consistent") true
            (Tree.Journal.consistent r);
          Tree.Journal.rollback r;
          check_bool (what "replay rollback restores") true
            (Tree.digest tree = d0))
        (value_closures tree))
    [ 11; 12; 13 ]

let test_replay_refuses_structural () =
  let tree = seeded_tree 14 in
  let sink = (Tree.sinks tree).(0) in
  let j = Tree.Journal.start tree in
  let at = (Tree.node tree sink).Tree.geom_len / 2 in
  ignore (Tree.insert_buffer_on_wire tree sink ~at ~buf:buf8);
  Tree.Journal.rollback j;
  check_bool "structural journal" false (Tree.Journal.value_only j);
  let d0 = Tree.digest tree and rev0 = Tree.revision tree in
  let r = Tree.Journal.start tree in
  (match Tree.Journal.replay j ~onto:tree with
  | () -> Alcotest.fail "structural replay under a journal accepted"
  | exception Invalid_argument _ -> ());
  check_bool "tree untouched" true (Tree.digest tree = d0);
  check_int "revision untouched" rev0 (Tree.revision tree);
  check_int "nothing recorded" 0 (Tree.Journal.ops r);
  Tree.Journal.rollback r;
  (* Without a journal the structural log still replays. *)
  Tree.Journal.replay j ~onto:tree;
  check_bool "unjournaled structural replay still applies" true
    (Tree.digest tree <> d0)

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "ctree"
    [
      ("tree",
       [ Alcotest.test_case "build" `Quick test_build;
         Alcotest.test_case "orders" `Quick test_orders;
         Alcotest.test_case "wire len / snake" `Quick test_wire_len_snake;
         Alcotest.test_case "split wire" `Quick test_split_wire;
         Alcotest.test_case "split L wire" `Quick test_split_l_wire;
         Alcotest.test_case "point along wire" `Quick test_point_along_wire;
         Alcotest.test_case "insert/remove buffer" `Quick test_insert_remove_buffer;
         Alcotest.test_case "set route" `Quick test_set_route;
         Alcotest.test_case "detach/reparent/compact" `Quick test_detach_reparent_compact;
         Alcotest.test_case "copy/assign" `Quick test_copy_assign;
         Alcotest.test_case "subtree sinks" `Quick test_subtree_sinks;
         Alcotest.test_case "add_node errors" `Quick test_add_node_errors;
         Alcotest.test_case "nested inversions" `Quick test_inversions_nested;
         Alcotest.test_case "split routed wire" `Quick test_split_routed_wire;
         Alcotest.test_case "point along routed wire" `Quick test_point_along_routed_wire;
         Alcotest.test_case "assign independence" `Quick test_assign_independence;
         q tree_qcheck ]);
      ("journal",
       [ Alcotest.test_case "journaled replay = closure" `Quick
           test_journaled_replay;
         Alcotest.test_case "structural replay refused under a journal"
           `Quick test_replay_refuses_structural ]);
      ("stats", [ Alcotest.test_case "aggregate" `Quick test_stats ]);
      ("validate", [ Alcotest.test_case "catches corruption" `Quick test_validate_catches ]);
      ("svg",
       [ Alcotest.test_case "render" `Quick test_svg;
         Alcotest.test_case "gradient" `Quick test_gradient ]);
    ]

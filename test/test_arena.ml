(* Flat-engine correctness: the arena snapshot, the flat stage pool and
   the streaming kernel must be interchangeable with the boxed
   extraction/evaluation pipeline — topology and electricals exactly,
   per-stage fingerprints bit-for-bit, timing results to ≤ 1e-9 ps —
   through arbitrary edit sequences, in-place stage updates, pool
   relocation/compaction, and journal-revision staleness. *)

open Geometry
module Tree = Ctree.Tree
module Arena = Ctree.Arena
module Rcnet = Analysis.Rcnet
module Rcflat = Analysis.Rcflat
module Transient = Analysis.Transient
module Ev = Analysis.Evaluator

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let tech = Tech.default45 ()
let buf8 = Tech.Composite.make Tech.Device.small_inverter 8

(* Same topology as test_incremental's rich tree: source → buffer →
   branch → two buffered subtrees, four sinks. *)
let rich_tree () =
  let t = Tree.create ~tech ~source_pos:(Point.make 0 0) in
  let a =
    Tree.add_node t ~kind:(Tree.Buffer buf8) ~pos:(Point.make 300_000 0)
      ~parent:(Tree.root t) ()
  in
  let mid =
    Tree.add_node t ~kind:Tree.Internal ~pos:(Point.make 600_000 0) ~parent:a ()
  in
  let b =
    Tree.add_node t ~kind:(Tree.Buffer buf8) ~pos:(Point.make 900_000 0)
      ~parent:mid ()
  in
  let c =
    Tree.add_node t ~kind:(Tree.Buffer buf8) ~pos:(Point.make 600_000 300_000)
      ~parent:mid ()
  in
  let sink label pos parent =
    ignore
      (Tree.add_node t ~kind:(Tree.Sink { Tree.cap = 15.; parity = 0; label })
         ~pos ~parent ())
  in
  sink "s1" (Point.make 1_200_000 0) b;
  sink "s2" (Point.make 900_000 300_000) b;
  sink "s3" (Point.make 600_000 600_000) c;
  sink "s4" (Point.make 900_000 450_000) c;
  t

let same_float a b =
  (Float.is_nan a && Float.is_nan b) || Float.abs (a -. b) <= 1e-9

let check_same_eval label (fresh : Ev.t) (inc : Ev.t) =
  let ok = ref true in
  let expect cond = if not cond then ok := false in
  expect (same_float fresh.Ev.skew inc.Ev.skew);
  expect (same_float fresh.Ev.skew_rise inc.Ev.skew_rise);
  expect (same_float fresh.Ev.skew_fall inc.Ev.skew_fall);
  expect (same_float fresh.Ev.clr inc.Ev.clr);
  expect (same_float fresh.Ev.t_min inc.Ev.t_min);
  expect (same_float fresh.Ev.t_max inc.Ev.t_max);
  expect (fresh.Ev.slew_violations = inc.Ev.slew_violations);
  expect (fresh.Ev.cap_ok = inc.Ev.cap_ok);
  expect (List.length fresh.Ev.runs = List.length inc.Ev.runs);
  List.iter2
    (fun (fr : Ev.run) (ir : Ev.run) ->
      expect (fr.Ev.corner.Tech.Corner.name = ir.Ev.corner.Tech.Corner.name);
      expect (fr.Ev.transition = ir.Ev.transition);
      expect (Array.length fr.Ev.latency = Array.length ir.Ev.latency);
      Array.iteri
        (fun i l -> expect (same_float l ir.Ev.latency.(i)))
        fr.Ev.latency;
      Array.iteri (fun i s -> expect (same_float s ir.Ev.slew.(i))) fr.Ev.slew)
    fresh.Ev.runs inc.Ev.runs;
  check_bool label true !ok

(* Apply one random structural or electrical edit (same distribution as
   the boxed incremental oracle). *)
let random_edit rng tree =
  let n_wires = Array.length tech.Tech.wires in
  let pick_wire_node () = 1 + Random.State.int rng (Tree.size tree - 1) in
  match Random.State.int rng 5 with
  | 0 ->
    let id = pick_wire_node () in
    Tree.set_snake tree id (Random.State.int rng 60_000)
  | 1 ->
    let id = pick_wire_node () in
    Tree.set_wire_class tree id (Random.State.int rng n_wires)
  | 2 -> (
    let bufs = Tree.buffer_ids tree in
    match Array.length bufs with
    | 0 -> ()
    | nb -> (
      let id = bufs.(Random.State.int rng nb) in
      match (Tree.node tree id).Tree.kind with
      | Tree.Buffer b ->
        let f = 0.5 +. Random.State.float rng 1.5 in
        Tree.set_buffer tree id (Tech.Composite.scale b f)
      | _ -> ()))
  | 3 ->
    let id = pick_wire_node () in
    let nd = Tree.node tree id in
    if nd.Tree.geom_len > 20_000 then
      ignore
        (Tree.insert_buffer_on_wire tree id
           ~at:(10_000 + Random.State.int rng (nd.Tree.geom_len - 20_000))
           ~buf:buf8)
  | _ -> (
    let bufs = Tree.buffer_ids tree in
    if Array.length bufs > 2 then
      Tree.remove_buffer tree bufs.(Random.State.int rng (Array.length bufs)))

(* ---------- Arena snapshot ---------- *)

let check_arena_matches_tree label tree (a : Arena.t) =
  let ok = ref true in
  let expect cond = if not cond then ok := false in
  expect (Arena.in_sync a);
  expect (Arena.size a = Tree.size tree);
  for id = 0 to Tree.size tree - 1 do
    let nd = Tree.node tree id in
    expect (a.Arena.parent.(id) = nd.Tree.parent);
    expect (a.Arena.len.(id) = Tree.wire_len nd);
    (* Sibling chain reproduces the children list in order. *)
    let chain = ref [] in
    let c = ref a.Arena.first_child.(id) in
    while !c >= 0 do
      chain := !c :: !chain;
      c := a.Arena.next_sibling.(!c)
    done;
    expect (List.rev !chain = nd.Tree.children);
    (if nd.Tree.parent >= 0 then begin
       let wire = Tree.wire_of tree nd in
       let len = Tree.wire_len nd in
       expect (a.Arena.wire_r.{id} = Tech.Wire.res wire len);
       expect (a.Arena.wire_c.{id} = Tech.Wire.cap wire len)
     end
     else expect (a.Arena.wire_r.{id} = 0. && a.Arena.wire_c.{id} = 0.));
    match nd.Tree.kind with
    | Tree.Source -> expect (a.Arena.kind.(id) = Arena.k_source)
    | Tree.Internal -> expect (a.Arena.kind.(id) = Arena.k_internal)
    | Tree.Sink s ->
      expect (a.Arena.kind.(id) = Arena.k_sink);
      expect (a.Arena.tap_c.{id} = s.Tree.cap)
    | Tree.Buffer b ->
      expect (a.Arena.kind.(id) = Arena.k_buffer);
      expect (a.Arena.tap_c.{id} = Tech.Composite.c_in b);
      expect (a.Arena.drv_c_out.{id} = Tech.Composite.c_out b);
      expect (a.Arena.drv_r_up.{id} = Tech.Composite.r_up b);
      expect (a.Arena.drv_r_down.{id} = Tech.Composite.r_down b);
      expect (a.Arena.drv_d_intr.{id} = Tech.Composite.d_intrinsic b);
      expect (a.Arena.drv_slew_c.{id} = Tech.Composite.slew_coeff b);
      expect
        (a.Arena.inverting.(id) = if Tech.Composite.inverting b then 1 else 0)
  done;
  check_bool label true !ok

let test_arena_snapshot () =
  let tree = rich_tree () in
  let a = Arena.compile tree in
  check_arena_matches_tree "fresh compile matches tree" tree a

let test_arena_sync_touched () =
  let tree = rich_tree () in
  let a = Arena.compile tree in
  Tree.set_snake tree 2 40_000;
  Tree.set_wire_class tree 5 0;
  check_bool "edits leave the arena stale" false (Arena.in_sync a);
  Arena.sync ~touched:[ 2; 5 ] a;
  check_arena_matches_tree "touched patch resyncs" tree a;
  (* A structural edit changes the node count: the touched patch must
     detect it and recompile instead. *)
  let nb = Tree.insert_buffer_on_wire tree 6 ~at:50_000 ~buf:buf8 in
  Arena.sync ~touched:[ nb ] a;
  check_arena_matches_tree "size change forces recompile" tree a

let test_arena_staleness_detection () =
  let tree = rich_tree () in
  let a = Arena.compile tree in
  check_bool "in sync after compile" true (Arena.in_sync a);
  (* Out-of-band mutation (direct field write + touch) must be visible
     through the revision counter. *)
  (Tree.node tree 2).Tree.snake <- 25_000;
  Tree.touch tree;
  check_bool "out-of-band touch detected" false (Arena.in_sync a);
  Arena.sync a;
  check_bool "full sync recovers" true (Arena.in_sync a);
  check_arena_matches_tree "and matches the tree" tree a

(* ---------- Flat stage pool vs boxed extraction ---------- *)

let check_pool_matches_boxed label tree (p : Rcflat.t) =
  let ok = ref true in
  let expect cond = if not cond then ok := false in
  let boxed = Array.of_list (Rcnet.stages tree) in
  expect (Rcflat.nstages p = Array.length boxed);
  Array.iteri
    (fun si (st : Rcnet.stage) ->
      expect (p.Rcflat.driver.(si) = st.Rcnet.driver);
      let rc = st.Rcnet.rc in
      expect (Int64.equal p.Rcflat.fp.(si) (Rcnet.fingerprint rc));
      let frc = Rcflat.stage_rc p si in
      expect (frc.Rcnet.size = rc.Rcnet.size);
      expect (frc.Rcnet.parent = rc.Rcnet.parent);
      expect (frc.Rcnet.res = rc.Rcnet.res);
      expect (frc.Rcnet.cap = rc.Rcnet.cap);
      expect (frc.Rcnet.taps = rc.Rcnet.taps))
    boxed;
  check_bool label true !ok

let test_pool_matches_boxed () =
  let tree = rich_tree () in
  let p = Rcflat.compile (Arena.compile tree) in
  check_pool_matches_boxed "initial pool = boxed stages" tree p

let test_pool_update_and_relocate () =
  let tree = rich_tree () in
  let a = Arena.compile tree in
  let p = Rcflat.compile a in
  (* Value edits that keep each stage in place, then snake growth that
     forces stages past their slack (relocation, eventually compaction). *)
  let snakes = [ 5_000; 120_000; 400_000; 900_000; 50_000; 0 ] in
  List.iter
    (fun s ->
      Tree.set_snake tree 2 s;
      Tree.set_snake tree 6 (s / 2);
      Arena.sync ~touched:[ 2; 6 ] a;
      (* Node 2's wire is in the stage driven by node 1; node 6's in the
         stage driven by node 3 — update every stage whose driver we can
         find, mirroring the evaluator's dirty set. *)
      for si = 0 to Rcflat.nstages p - 1 do
        Rcflat.update_stage p si
      done;
      check_pool_matches_boxed
        (Printf.sprintf "pool matches after snake=%d" s)
        tree p)
    snakes;
  check_bool "pool accounting stays consistent" true
    (Rcflat.total_nodes p > 0)

(* ---------- Streaming kernel vs boxed kernel ---------- *)

let test_flat_kernel_matches_boxed () =
  let tree = rich_tree () in
  let p = Rcflat.compile (Arena.compile tree) in
  let boxed = Array.of_list (Rcnet.stages tree) in
  let fcache = Transient.Flat.Fcache.create () in
  let ok = ref true in
  Array.iteri
    (fun si (st : Rcnet.stage) ->
      let rc = st.Rcnet.rc in
      let bres = Transient.solve rc ~r_drv:120. ~s_drv:8. in
      let fres = Transient.Flat.solve ~fcache p ~si ~r_drv:120. ~s_drv:8. in
      if Array.length bres <> Array.length fres then ok := false
      else
        Array.iteri
          (fun k (d, s) ->
            let fd, fs = fres.(k) in
            if not (same_float d fd && same_float s fs) then ok := false)
          bres)
    boxed;
  check_bool "per-stage flat solve = boxed solve" true !ok

(* ---------- Whole-tree flat evaluation oracles ---------- *)

let test_flat_evaluate_oracle () =
  let tree = rich_tree () in
  let boxed = Ev.evaluate ~engine:Ev.Spice tree in
  let flat = Ev.evaluate ~engine:Ev.Spice ~flat:true tree in
  check_same_eval "flat evaluate = boxed evaluate" boxed flat

let test_flat_incremental_oracle () =
  (* The cache-correctness oracle, flat edition: a flat session chased
     through random edit sequences (journaled, so the dirty fast path is
     exercised) must match a from-scratch boxed evaluation to ≤ 1e-9 ps
     at every step. *)
  let tree = rich_tree () in
  let session = Ev.Incremental.create ~engine:Ev.Spice ~flat:true tree in
  let rng = Random.State.make [| 42 |] in
  let boxed0 = Ev.evaluate ~engine:Ev.Spice tree in
  check_same_eval "initial flat refresh matches boxed evaluate" boxed0
    (Ev.Incremental.refresh session);
  for i = 1 to 25 do
    let j = Tree.Journal.start tree in
    random_edit rng tree;
    let hint = Core.Speculate.hint_of_journal j in
    Tree.Journal.commit j;
    let boxed = Ev.evaluate ~engine:Ev.Spice tree in
    let inc = Ev.Incremental.refresh ?edits:hint session in
    check_same_eval (Printf.sprintf "edit %d matches" i) boxed inc
  done;
  let st = Ev.Incremental.stats session in
  check_bool "cache produced hits" true (st.Ev.hits > 0);
  check_bool "dirty fast path exercised" true (st.Ev.dirty_refreshes > 0)

let test_flat_parallel_matches_sequential () =
  let tree = rich_tree () in
  let seq =
    Ev.Incremental.create ~engine:Ev.Spice ~flat:true ~parallel:false tree
  in
  let par =
    Ev.Incremental.create ~engine:Ev.Spice ~flat:true ~parallel:true tree
  in
  check_same_eval "flat parallel = flat sequential"
    (Ev.Incremental.refresh seq)
    (Ev.Incremental.refresh par);
  Tree.set_snake tree 2 40_000;
  check_same_eval "after edit too"
    (Ev.Incremental.refresh seq)
    (Ev.Incremental.refresh par);
  let s1 = Ev.Incremental.stats seq and s2 = Ev.Incremental.stats par in
  check_int "identical hit counts" s1.Ev.hits s2.Ev.hits;
  check_int "identical miss counts" s1.Ev.misses s2.Ev.misses

let test_flat_unreported_mutation_falls_back () =
  (* A mutation the session was never told about must not poison the
     flat caches: the broken anchor forces a full refresh whose result
     still matches a from-scratch evaluation. *)
  let tree = rich_tree () in
  let session = Ev.Incremental.create ~engine:Ev.Spice ~flat:true tree in
  ignore (Ev.Incremental.refresh session);
  Tree.set_snake tree 2 33_000;
  Ev.Incremental.note_edits session ~edits:None
    ~new_revision:(Tree.revision tree);
  let boxed = Ev.evaluate ~engine:Ev.Spice tree in
  check_same_eval "full-refresh fallback matches" boxed
    (Ev.Incremental.refresh session);
  let st = Ev.Incremental.stats session in
  check_int "no dirty refresh happened" 0 st.Ev.dirty_refreshes

let test_flat_rebind_after_compact () =
  let tree = rich_tree () in
  let session = Ev.Incremental.create ~engine:Ev.Spice ~flat:true tree in
  ignore (Ev.Incremental.refresh session);
  let clone, _ = Tree.compact (Tree.copy tree) in
  let misses_before = (Ev.Incremental.stats session).Ev.misses in
  let inc = Ev.Incremental.refresh ~tree:clone session in
  let boxed = Ev.evaluate ~engine:Ev.Spice clone in
  check_same_eval "compacted clone matches" boxed inc;
  check_int "content-keyed caches carry over" misses_before
    (Ev.Incremental.stats session).Ev.misses

let () =
  Alcotest.run "arena"
    [
      ( "arena",
        [
          Alcotest.test_case "snapshot matches tree" `Quick
            test_arena_snapshot;
          Alcotest.test_case "touched-patch sync" `Quick
            test_arena_sync_touched;
          Alcotest.test_case "revision staleness detection" `Quick
            test_arena_staleness_detection;
        ] );
      ( "pool",
        [
          Alcotest.test_case "matches boxed extraction" `Quick
            test_pool_matches_boxed;
          Alcotest.test_case "in-place update and relocation" `Quick
            test_pool_update_and_relocate;
        ] );
      ( "kernel",
        [
          Alcotest.test_case "flat solve = boxed solve" `Quick
            test_flat_kernel_matches_boxed;
        ] );
      ( "evaluator",
        [
          Alcotest.test_case "flat evaluate oracle" `Quick
            test_flat_evaluate_oracle;
          Alcotest.test_case "flat incremental oracle" `Slow
            test_flat_incremental_oracle;
          Alcotest.test_case "parallel = sequential" `Quick
            test_flat_parallel_matches_sequential;
          Alcotest.test_case "unreported mutation falls back" `Quick
            test_flat_unreported_mutation_falls_back;
          Alcotest.test_case "rebind after compact" `Quick
            test_flat_rebind_after_compact;
        ] );
    ]

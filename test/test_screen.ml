(* Early-exit screening: [Evaluator.screen] must be a strict prefix of
   [Evaluator.evaluate] — bit-equal when it finishes, [None] exactly when
   the full evaluation's worst tap slew passes the bound — the corner
   fan-out of the stateless path must stay bit-identical to a sequential
   session, and insertion driven by the screen must make the same
   choices as the full-evaluation sweep it replaced. *)

module Tree = Ctree.Tree
module Ev = Analysis.Evaluator

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ---------- bit-level comparison of two evaluations ---------- *)

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let same_array a b =
  Array.length a = Array.length b
  && (let ok = ref true in
      Array.iteri (fun i x -> if not (same_bits x b.(i)) then ok := false) a;
      !ok)

let same_run (a : Ev.run) (b : Ev.run) =
  a.Ev.corner.Tech.Corner.name = b.Ev.corner.Tech.Corner.name
  && a.Ev.transition = b.Ev.transition
  && same_array a.Ev.latency b.Ev.latency
  && same_array a.Ev.slew b.Ev.slew
  && same_bits a.Ev.worst_slew b.Ev.worst_slew
  && a.Ev.worst_slew_node = b.Ev.worst_slew_node

let check_same_eval label (a : Ev.t) (b : Ev.t) =
  let fields =
    [ ("runs",
       List.length a.Ev.runs = List.length b.Ev.runs
       && List.for_all2 same_run a.Ev.runs b.Ev.runs);
      ("sinks", a.Ev.sinks = b.Ev.sinks);
      ("skew_rise", same_bits a.Ev.skew_rise b.Ev.skew_rise);
      ("skew_fall", same_bits a.Ev.skew_fall b.Ev.skew_fall);
      ("skew", same_bits a.Ev.skew b.Ev.skew);
      ("t_min", same_bits a.Ev.t_min b.Ev.t_min);
      ("t_max", same_bits a.Ev.t_max b.Ev.t_max);
      ("clr", same_bits a.Ev.clr b.Ev.clr);
      ("slew_violations", a.Ev.slew_violations = b.Ev.slew_violations);
      ("cap_ok", a.Ev.cap_ok = b.Ev.cap_ok);
      ("stats", compare a.Ev.stats b.Ev.stats = 0) ]
  in
  List.iter (fun (f, ok) -> check_bool (label ^ ": " ^ f) true ok) fields

let worst_tap_slew (ev : Ev.t) =
  List.fold_left (fun acc (r : Ev.run) -> Float.max acc r.Ev.worst_slew) 0.
    ev.Ev.runs

(* ---------- randomized buffered trees ---------- *)

let config = Core.Config.default

(* A ti:N instance with a seeded size, composite and load ceiling, plus
   a few random wire-class and snake edits: slews range from comfortably
   inside the limit to far beyond it, so both screen verdicts occur. *)
let random_tree seed =
  let rng = Random.State.make [| seed |] in
  let b = Suite.Gen_ti.generate (30 + Random.State.int rng 90) in
  let tech = b.Suite.Format_io.tech in
  let zst =
    Dme.Zst.build ~tech ~source:b.Suite.Format_io.source b.Suite.Format_io.sinks
  in
  let cands = Array.of_list (Core.Insertion.candidates config tech) in
  let rec insert tries =
    let buf = cands.(Random.State.int rng (Array.length cands)) in
    let cap_ceiling = 80. +. Random.State.float rng 900. in
    match Buffering.Fast_vg.insert zst ~buf ~cap_ceiling () with
    | t -> t
    | exception Buffering.Fast_vg.Infeasible _ when tries > 0 ->
      insert (tries - 1)
  in
  let tree = insert 20 in
  let nwires = Array.length tech.Tech.wires in
  for _ = 1 to 6 do
    let id = 1 + Random.State.int rng (Tree.size tree - 1) in
    if Random.State.bool rng then
      Tree.set_wire_class tree id (Random.State.int rng nwires)
    else Tree.set_snake tree id (Random.State.int rng 200_000)
  done;
  tree

let seeds = [ 1; 2; 3; 4 ]

type setup = { name : string; engine : Ev.engine; flat : bool }

let setups =
  [ { name = "spice"; engine = Ev.Spice; flat = false };
    { name = "spice flat"; engine = Ev.Spice; flat = true };
    { name = "arnoldi"; engine = Ev.Arnoldi; flat = false };
    { name = "elmore"; engine = Ev.Elmore_model; flat = false } ]

let seg_len = 40_000

(* ---------- screen oracle ---------- *)

let test_screen_oracle setup () =
  let rejected = ref 0 and accepted = ref 0 in
  List.iter
    (fun seed ->
      let tree = random_tree seed in
      let label = Printf.sprintf "%s seed %d" setup.name seed in
      let full = Ev.evaluate ~engine:setup.engine ~flat:setup.flat ~seg_len tree in
      let screen max_slew =
        let before = Ev.eval_count () in
        let r =
          Ev.screen ~engine:setup.engine ~flat:setup.flat ~seg_len ~max_slew tree
        in
        check_int (label ^ ": one eval per screen") 1 (Ev.eval_count () - before);
        r
      in
      (match screen infinity with
      | Some ev -> check_same_eval (label ^ " unbounded") full ev
      | None -> Alcotest.fail (label ^ ": unbounded screen rejected"));
      let worst = worst_tap_slew full in
      let limit = (Tree.tech tree).Tech.slew_limit in
      List.iter
        (fun m ->
          let l = Printf.sprintf "%s max_slew %.17g (worst %.17g)" label m worst in
          match screen m with
          | None ->
            incr rejected;
            check_bool (l ^ ": rejected only beyond the bound") true (worst > m)
          | Some ev ->
            incr accepted;
            check_bool (l ^ ": accepted only within the bound") true
              (worst <= m);
            check_same_eval l full ev)
        [ worst; Float.pred worst; Float.succ worst; worst /. 2.; worst /. 10.;
          limit; 0.65 *. limit ])
    seeds;
  (* Both verdicts must actually have been exercised. *)
  check_bool (setup.name ^ ": some rejections") true (!rejected > 0);
  check_bool (setup.name ^ ": some acceptances") true (!accepted > 0)

(* ---------- corner fan-out vs a sequential session ---------- *)

let test_parallel_evaluate_matches_session engine () =
  List.iter
    (fun seed ->
      let tree = random_tree seed in
      let session = Ev.Incremental.create ~engine ~seg_len ~parallel:false tree in
      let seq = Ev.Incremental.refresh session in
      let par = Ev.evaluate ~engine ~seg_len tree in
      check_same_eval (Printf.sprintf "seed %d" seed) seq par)
    seeds

(* ---------- screening from a pool worker ---------- *)

module Dp = Analysis.Domain_pool

(* Run [job] on a worker domain of [pool] and wait for it: [submit] on a
   pool with workers never runs the job inline. Returns whether the job
   saw itself on a worker, and its result. *)
let on_worker pool job =
  let cell = ref None and lock = Mutex.create () and filled = Condition.create () in
  Dp.submit pool (fun () ->
      let r = match job () with v -> Ok v | exception e -> Error e in
      Mutex.lock lock;
      cell := Some (Dp.on_worker (), r);
      Condition.signal filled;
      Mutex.unlock lock);
  Mutex.lock lock;
  while Option.is_none !cell do Condition.wait filled lock done;
  Mutex.unlock lock;
  match Option.get !cell with
  | worker, Ok v -> (worker, v)
  | _, Error e -> raise e

(* A call made on a pool worker runs its corners inline instead of on
   the global pool; neither the verdict nor any bit of the result may
   depend on which. *)
let test_screen_on_worker () =
  check_bool "main domain is not a worker" false (Dp.on_worker ());
  let pool = Dp.create ~size:1 () in
  Fun.protect
    ~finally:(fun () -> Dp.shutdown pool)
    (fun () ->
      List.iter
        (fun setup ->
          List.iter
            (fun seed ->
              let tree = random_tree seed in
              let label = Printf.sprintf "%s seed %d" setup.name seed in
              let screen max_slew () =
                Ev.screen ~engine:setup.engine ~flat:setup.flat ~seg_len
                  ~max_slew tree
              in
              let full = Option.get (screen infinity ()) in
              let half = worst_tap_slew full /. 2. in
              let worker, (w_full, w_half) =
                on_worker pool (fun () -> (screen infinity (), screen half ()))
              in
              check_bool (label ^ ": ran on a worker") true worker;
              (match w_full with
              | Some ev -> check_same_eval (label ^ " on worker") full ev
              | None -> Alcotest.fail (label ^ ": unbounded screen rejected"));
              check_bool (label ^ ": rejected on worker") true
                (Option.is_none w_half))
            seeds)
        setups)

(* ---------- insertion: screened sweep vs the full-evaluation sweep ---------- *)

(* The sweep [Insertion.run] performed before screening: a full
   [evaluate] per candidate and the violation-count-plus-headroom
   verdict. Kept verbatim as the reference. *)
let reference_insertion ?(obstacles = []) config tree =
  let tech = Tree.tech tree in
  let budget = (1. -. config.Core.Config.gamma) *. tech.Tech.cap_limit in
  let evaluate t =
    Ev.evaluate ~engine:config.Core.Config.engine
      ~seg_len:config.Core.Config.seg_len t
  in
  let forbidden =
    match obstacles with
    | [] -> fun _ -> false
    | _ ->
      let compounds = Route.Obstacle.compounds obstacles in
      fun p -> List.exists (fun c -> Route.Obstacle.inside c p) compounds
  in
  let tried = ref 0 in
  let try_config buf =
    let tree, repair =
      match obstacles with
      | [] -> (tree, None)
      | _ ->
        let drivable_cap =
          Float.min
            (Route.Slewcap.lumped ~tech ~buf ())
            (Route.Slewcap.wire_aware ~tech ~buf ())
        in
        let repaired, report = Route.Repair.run tree ~obstacles ~drivable_cap in
        (repaired, Some report)
    in
    let rec attempt ceiling retries =
      incr tried;
      match
        Buffering.Fast_vg.insert tree ~buf ~step:config.Core.Config.vg_step
          ?buckets:config.Core.Config.vg_buckets ~forbidden ~cap_ceiling:ceiling
          ()
      with
      | exception Buffering.Fast_vg.Infeasible _ -> None
      | buffered ->
        let ev = evaluate buffered in
        let headroom_ok =
          worst_tap_slew ev
          <= (1. -. config.Core.Config.slew_margin) *. tech.Tech.slew_limit
        in
        if ev.Ev.slew_violations = 0 && headroom_ok then
          if ev.Ev.stats.Ctree.Stats.total_cap <= budget then
            Some (buffered, ceiling, ev)
          else None
        else if retries > 0 then attempt (ceiling *. 0.7) (retries - 1)
        else None
    in
    let seed_ceiling =
      Float.min
        (Route.Slewcap.lumped ~tech ~buf ())
        (Route.Slewcap.wire_aware ~tech ~buf ())
    in
    match attempt seed_ceiling 8 with
    | Some (buffered, ceiling, ev) -> Some (buffered, ceiling, ev, repair)
    | None -> None
  in
  let rec sweep = function
    | [] -> failwith "reference insertion: no configuration fits"
    | buf :: rest ->
      (match try_config buf with
      | Some (buffered, ceiling, ev, repair) ->
        { Core.Insertion.tree = buffered; buf; ceiling; eval = ev;
          tried = !tried; repair }
      | None -> sweep rest)
  in
  sweep (Core.Insertion.candidates config tech)

let check_same_insertion spec config =
  let b = Suite.Runner.load_bench spec in
  let obstacles = b.Suite.Format_io.obstacles in
  let zst =
    Dme.Zst.build ~tech:b.Suite.Format_io.tech ~source:b.Suite.Format_io.source
      b.Suite.Format_io.sinks
  in
  let counted f =
    let before = Ev.eval_count () in
    let r = f () in
    (r, Ev.eval_count () - before)
  in
  let old, old_evals =
    counted (fun () -> reference_insertion ~obstacles config zst)
  in
  let fresh, fresh_evals =
    counted (fun () -> Core.Insertion.run ~obstacles config zst)
  in
  let open Core.Insertion in
  check_bool (spec ^ ": buf") true (compare old.buf fresh.buf = 0);
  check_bool (spec ^ ": ceiling") true (same_bits old.ceiling fresh.ceiling);
  check_int (spec ^ ": tried") old.tried fresh.tried;
  check_bool (spec ^ ": repair report") true (old.repair = fresh.repair);
  check_bool (spec ^ ": tree digest") true
    (Int64.equal (Tree.digest old.tree) (Tree.digest fresh.tree));
  check_int (spec ^ ": eval count") old_evals fresh_evals;
  check_same_eval (spec ^ ": chosen evaluation") old.eval fresh.eval

let test_insertion_ispd () =
  List.iter
    (fun spec -> check_same_insertion spec Core.Config.default)
    Suite.Gen_ispd.names

let test_insertion_scalability () =
  List.iter
    (fun spec -> check_same_insertion spec Core.Config.scalability)
    [ "ti:200"; "ti:1000" ]

let () =
  Alcotest.run "screen"
    [ ("oracle",
       List.map
         (fun s -> Alcotest.test_case s.name `Quick (test_screen_oracle s))
         setups);
      ("determinism",
       [ Alcotest.test_case "spice evaluate = sequential session" `Quick
           (test_parallel_evaluate_matches_session Ev.Spice);
         Alcotest.test_case "elmore evaluate = sequential session" `Quick
           (test_parallel_evaluate_matches_session Ev.Elmore_model);
         Alcotest.test_case "screen on a pool worker runs inline" `Quick
           test_screen_on_worker ]);
      ("insertion",
       [ Alcotest.test_case "ispd instances" `Quick test_insertion_ispd;
         Alcotest.test_case "ti scalability" `Quick test_insertion_scalability ])
    ]

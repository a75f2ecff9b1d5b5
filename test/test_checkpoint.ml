(* Checkpoint/resume + degraded-mode retry: canonical tree serialization
   round-trips (including snakes, routes, rescaled buffers, polarity
   inverters), malformed-input fuzzing (Tree.of_string and
   Format_io.of_string never raise), atomic checksummed persistence,
   Flow.Checkpoint save/load, kill-and-resume bit-identity of the full
   flow, and the Numerical_failure → degraded-retry recovery path. *)

open Geometry
module Tree = Ctree.Tree
module Ev = Analysis.Evaluator
module Flow = Core.Flow

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let tech = Tech.default45 ()
let config = { Core.Config.default with Core.Config.max_rounds = 30 }

(* Mixed parities force polarity-correcting inverters into the tree. *)
let random_sinks seed n span =
  let rng = Suite.Rng.create seed in
  Array.init n (fun i ->
      { Dme.Zst.pos =
          Point.make (Suite.Rng.int rng span) (Suite.Rng.int rng span);
        cap = 5. +. (Suite.Rng.float rng *. 25.); parity = i mod 2;
        label = Printf.sprintf "s%d" i })

let initial_tree ?(seed = 4242) () =
  let sinks = random_sinks seed 30 3_000_000 in
  let tree, buf, _, _ =
    Core.Flow.initial_tree ~config ~tech ~source:(Point.make 0 1_500_000)
      sinks
  in
  (tree, buf)

let pick_node rng tree pred =
  let n = Tree.size tree in
  let rec go k =
    if k = 0 then None
    else
      let id = Suite.Rng.int rng n in
      if pred (Tree.node tree id) then Some id else go (k - 1)
  in
  go 64

(* One random mutation through the public mutators, covering every field
   the serializer writes: snakes, wire classes, geometry, buffer
   rescales, wire splits, buffer insertion and explicit Z-routes. *)
let random_edit rng tree buf =
  let wires nd = nd.Tree.parent >= 0 in
  (* Geometry-changing edits must skip explicitly routed wires: Validate
     requires the polyline length to equal geom_len exactly. *)
  let routeless nd = wires nd && nd.Tree.route = [] in
  match Suite.Rng.int rng 7 with
  | 0 -> (
    match pick_node rng tree wires with
    | Some id ->
      Tree.set_snake tree id
        ((Tree.node tree id).Tree.snake + 1_000 + Suite.Rng.int rng 20_000)
    | None -> ())
  | 1 -> (
    match
      pick_node rng tree (fun nd -> wires nd && nd.Tree.wire_class > 0)
    with
    | Some id ->
      Tree.set_wire_class tree id ((Tree.node tree id).Tree.wire_class - 1)
    | None -> ())
  | 2 -> (
    match pick_node rng tree routeless with
    | Some id ->
      Tree.set_geom_len tree id
        ((Tree.node tree id).Tree.geom_len + 1 + Suite.Rng.int rng 5_000)
    | None -> ())
  | 3 -> (
    match
      pick_node rng tree (fun nd ->
          match nd.Tree.kind with Tree.Buffer _ -> true | _ -> false)
    with
    | Some id -> (
      match (Tree.node tree id).Tree.kind with
      | Tree.Buffer b -> Tree.set_buffer tree id (Tech.Composite.scale b 1.15)
      | _ -> ())
    | None -> ())
  | 4 -> (
    match
      pick_node rng tree (fun nd -> routeless nd && Tree.wire_len nd >= 2_000)
    with
    | Some id ->
      let len = Tree.wire_len (Tree.node tree id) in
      ignore (Tree.split_wire tree id ~at:(1 + Suite.Rng.int rng (len - 1)))
    | None -> ())
  | 5 -> (
    match
      pick_node rng tree (fun nd -> routeless nd && Tree.wire_len nd >= 2_000)
    with
    | Some id ->
      let len = Tree.wire_len (Tree.node tree id) in
      ignore
        (Tree.insert_buffer_on_wire tree id
           ~at:(1 + Suite.Rng.int rng (len - 1))
           ~buf)
    | None -> ())
  | _ -> (
    (* Explicit Z-route through a random middle x; geom_len updated to
       the polyline length so Validate stays green. *)
    match pick_node rng tree wires with
    | Some id ->
      let nd = Tree.node tree id in
      let p = (Tree.node tree nd.Tree.parent).Tree.pos in
      let q = nd.Tree.pos in
      let m = Suite.Rng.int rng 3_000_000 in
      let route =
        [ p; Point.make m p.Point.y; Point.make m q.Point.y; q ]
      in
      let len =
        abs (m - p.Point.x) + abs (q.Point.y - p.Point.y)
        + abs (q.Point.x - m)
      in
      Tree.set_geom_len tree id len;
      Tree.set_route tree id route
    | None -> ())

(* ---------- serialization round-trip ---------- *)

let test_roundtrip_random () =
  let base, buf = initial_tree () in
  let rng = Suite.Rng.create 2024 in
  for trial = 1 to 20 do
    let tree = Tree.copy base in
    for _ = 1 to Suite.Rng.int rng 25 do
      random_edit rng tree buf
    done;
    Alcotest.(check (list string))
      (Printf.sprintf "trial %d stays valid" trial)
      [] (Ctree.Validate.check tree);
    let text = Tree.to_string tree in
    match Tree.of_string ~tech text with
    | Error e -> Alcotest.failf "trial %d failed to parse: %s" trial e
    | Ok back ->
      check_bool
        (Printf.sprintf "trial %d digest round-trips" trial)
        true
        (Tree.digest back = Tree.digest tree);
      check_string
        (Printf.sprintf "trial %d reserialization is canonical" trial)
        text (Tree.to_string back)
  done

let test_roundtrip_labels () =
  (* Labels with spaces, %, unicode bytes and an empty label survive the
     percent-escaping. *)
  let tree = Tree.create ~tech ~source_pos:(Point.make 0 0) in
  let labels = [ "plain"; "with space"; "100%"; "caf\xc3\xa9"; "" ] in
  List.iteri
    (fun i label ->
      ignore
        (Tree.add_node tree
           ~kind:(Tree.Sink { cap = 7.5 +. float_of_int i; parity = i land 1;
                              label })
           ~pos:(Point.make (10_000 * (i + 1)) 20_000)
           ~parent:0 ()))
    labels;
  match Tree.of_string ~tech (Tree.to_string tree) with
  | Error e -> Alcotest.failf "parse: %s" e
  | Ok back ->
    let back_labels =
      Array.to_list (Tree.sinks back)
      |> List.map (fun id ->
             match (Tree.node back id).Tree.kind with
             | Tree.Sink s -> s.Tree.label
             | _ -> assert false)
    in
    Alcotest.(check (list string)) "labels survive" labels back_labels;
    check_bool "digest" true (Tree.digest back = Tree.digest tree)

(* ---------- malformed-input fuzz ---------- *)

(* Random corruptions of valid output must yield Ok or Error, never an
   exception — of_string is the attack surface of checkpoint loading. *)
let test_tree_of_string_fuzz () =
  let tree, _ = initial_tree () in
  let text = Tree.to_string tree in
  let n = String.length text in
  let rng = Suite.Rng.create 31337 in
  for _ = 1 to 400 do
    let mutated =
      match Suite.Rng.int rng 4 with
      | 0 -> String.sub text 0 (Suite.Rng.int rng n)  (* truncate *)
      | 1 ->
        (* flip one byte *)
        let b = Bytes.of_string text in
        Bytes.set b (Suite.Rng.int rng n)
          (Char.chr (Suite.Rng.int rng 256));
        Bytes.to_string b
      | 2 ->
        (* drop one line *)
        let lines = String.split_on_char '\n' text in
        let k = Suite.Rng.int rng (List.length lines) in
        String.concat "\n" (List.filteri (fun i _ -> i <> k) lines)
      | _ ->
        (* duplicate one line *)
        let lines = String.split_on_char '\n' text in
        let k = Suite.Rng.int rng (List.length lines) in
        String.concat "\n"
          (List.concat_map
             (fun (i, l) -> if i = k then [ l; l ] else [ l ])
             (List.mapi (fun i l -> (i, l)) lines))
    in
    match Tree.of_string ~tech mutated with
    | Ok _ | Error _ -> ()
    | exception e ->
      Alcotest.failf "of_string raised %s on %S" (Printexc.to_string e)
        (String.sub mutated 0 (min 200 (String.length mutated)))
  done

let test_format_io_fuzz () =
  let b = Suite.Gen_grid.generate ~n:3 () in
  let text = Suite.Format_io.to_string b in
  let n = String.length text in
  let rng = Suite.Rng.create 777 in
  for _ = 1 to 300 do
    let mutated =
      match Suite.Rng.int rng 3 with
      | 0 -> String.sub text 0 (Suite.Rng.int rng n)
      | 1 ->
        let b = Bytes.of_string text in
        Bytes.set b (Suite.Rng.int rng n)
          (Char.chr (Suite.Rng.int rng 256));
        Bytes.to_string b
      | _ ->
        let garbage =
          String.init (Suite.Rng.int rng 40) (fun _ ->
              Char.chr (32 + Suite.Rng.int rng 95))
        in
        text ^ garbage ^ "\n"
    in
    match Suite.Format_io.of_string ~name:"fuzz" mutated with
    | Ok _ | Error _ -> ()
    | exception e ->
      Alcotest.failf "Format_io.of_string raised %s" (Printexc.to_string e)
  done

let test_read_file_diagnostics () =
  let path = Filename.temp_file "contango_bad" ".cts" in
  let oc = open_out path in
  output_string oc "chip 0 0 100 100\nsource 0 0\nsink a 1 1 notanumber\n";
  close_out oc;
  (match Suite.Format_io.read_file path with
  | Ok _ -> Alcotest.fail "bad benchmark parsed"
  | Error e ->
    check_bool
      (Printf.sprintf "error %S carries path:line" e)
      true
      (let prefix = path ^ ":3:" in
       String.length e >= String.length prefix
       && String.sub e 0 (String.length prefix) = prefix));
  Sys.remove path;
  match Suite.Format_io.read_file "/nonexistent/contango.cts" with
  | Ok _ -> Alcotest.fail "missing file parsed"
  | Error _ -> ()

(* ---------- atomic checksummed persistence ---------- *)

(* Published FNV-1a-64 test vectors pin the checksum bit for bit. *)
let test_fnv1a_vectors () =
  List.iter
    (fun (input, want) ->
      Alcotest.(check int64) (Printf.sprintf "fnv1a %S" input) want
        (Core.Persist.fnv1a input))
    [ ("", 0xcbf29ce484222325L); ("a", 0xaf63dc4c8601ec8cL);
      ("foobar", 0x85944171f73967e8L) ]

let test_persist () =
  let dir = Filename.temp_file "contango_persist" "" in
  Sys.remove dir;
  Core.Persist.mkdir_p (Filename.concat dir "sub");
  let path = Filename.concat dir "sub/data.txt" in
  let payload = "hello\ncheckpoint\n" in
  Core.Persist.write_atomic_checked path payload;
  (match Core.Persist.read_checked path with
  | Ok s -> check_string "payload round-trips" payload s
  | Error e -> Alcotest.failf "read_checked: %s" e);
  (* overwrite is atomic-replace, not append *)
  Core.Persist.write_atomic_checked path "v2";
  (match Core.Persist.read_checked path with
  | Ok s -> check_string "overwrite" "v2" s
  | Error e -> Alcotest.failf "read_checked after overwrite: %s" e);
  (* no leftover temp files *)
  check_int "no temp litter" 1
    (Array.length (Sys.readdir (Filename.concat dir "sub")));
  (* corruption is detected *)
  let raw =
    In_channel.with_open_bin path (fun ic -> In_channel.input_all ic)
  in
  let b = Bytes.of_string raw in
  Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 1));
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_bytes oc b);
  (match Core.Persist.read_checked path with
  | Ok _ -> Alcotest.fail "corrupted file passed the checksum"
  | Error _ -> ());
  (match Core.Persist.read_checked (Filename.concat dir "absent") with
  | Ok _ -> Alcotest.fail "missing file read"
  | Error _ -> ())

(* ---------- Flow.Checkpoint save/load ---------- *)

let temp_dir prefix =
  let d = Filename.temp_file prefix "" in
  Sys.remove d;
  Core.Persist.mkdir_p d;
  d

let test_checkpoint_save_load () =
  let tree, buf = initial_tree () in
  let dir = temp_dir "contango_ckpt" in
  let polarity = { Core.Polarity.inverted_before = 3; added = 2 } in
  let repair =
    Some
      { Route.Repair.bend_flips = 1; detours = 2; drivable_skips = 3;
        reroutes = 4; remaining_overlap = 5 }
  in
  let metas =
    [ { Flow.m_step = Flow.Initial; m_skew = 12.5; m_clr = 14.25;
        m_t_max = 200.0625; m_slew_waived = false; m_cap_waived = false };
      { Flow.m_step = Flow.Tbsz; m_skew = 3.5; m_clr = 4.75;
        m_t_max = 150.125; m_slew_waived = true; m_cap_waived = false } ]
  in
  Flow.Checkpoint.save ~dir ~step:Flow.Tbsz ~tree ~buf ~polarity ~repair
    ~metas;
  (match Flow.Checkpoint.load_latest ~tech ~dir with
  | None -> Alcotest.fail "no checkpoint loaded"
  | Some l ->
    check_bool "step" true (l.Flow.Checkpoint.ck_step = Flow.Tbsz);
    check_bool "tree digest" true
      (Tree.digest l.Flow.Checkpoint.ck_tree = Tree.digest tree);
    check_bool "buf" true
      (Tech.Composite.equal l.Flow.Checkpoint.ck_buf buf);
    check_int "polarity inverted_before" 3
      l.Flow.Checkpoint.ck_polarity.Core.Polarity.inverted_before;
    check_int "polarity added" 2
      l.Flow.Checkpoint.ck_polarity.Core.Polarity.added;
    (match l.Flow.Checkpoint.ck_repair with
    | Some r ->
      check_int "repair reroutes" 4 r.Route.Repair.reroutes;
      check_int "repair overlap" 5 r.Route.Repair.remaining_overlap
    | None -> Alcotest.fail "repair lost");
    check_int "metas" 2 (List.length l.Flow.Checkpoint.ck_metas);
    let m2 = List.nth l.Flow.Checkpoint.ck_metas 1 in
    check_bool "meta step" true (m2.Flow.m_step = Flow.Tbsz);
    check_bool "meta skew bit-exact" true
      (Int64.bits_of_float m2.Flow.m_skew = Int64.bits_of_float 3.5);
    check_bool "meta waived flags" true
      (m2.Flow.m_slew_waived && not m2.Flow.m_cap_waived));
  (* A corrupted later checkpoint degrades load_latest to the earlier
     one instead of failing it. *)
  Flow.Checkpoint.save ~dir ~step:Flow.Twsz ~tree ~buf ~polarity ~repair
    ~metas;
  let twsz = Flow.Checkpoint.path ~dir Flow.Twsz in
  Out_channel.with_open_bin twsz (fun oc ->
      Out_channel.output_string oc "garbage");
  (match Flow.Checkpoint.load_latest ~tech ~dir with
  | Some l -> check_bool "degraded" true (l.Flow.Checkpoint.ck_step = Flow.Tbsz)
  | None -> Alcotest.fail "corrupt later checkpoint killed the resume");
  (* So does a checksummed one whose buf line carries NaN electricals:
     the checksum vouches for the bytes, not for a verified state. *)
  let text =
    match Core.Persist.read_checked (Flow.Checkpoint.path ~dir Flow.Tbsz) with
    | Ok t -> t
    | Error e -> Alcotest.fail e
  in
  let nan_buf =
    let d = buf.Tech.Composite.base in
    Printf.sprintf "buf %d %s nan nan nan nan nan nan %d"
      buf.Tech.Composite.count d.Tech.Device.name
      (if d.Tech.Device.inverting then 1 else 0)
  in
  String.split_on_char '\n' text
  |> List.map (fun line ->
         if String.starts_with ~prefix:"buf " line then nan_buf
         else if line = "step TBSZ" then "step TWSZ"
         else line)
  |> String.concat "\n"
  |> Core.Persist.write_atomic_checked twsz;
  check_bool "NaN buf line rejected" true
    (Result.is_error (Flow.Checkpoint.load ~tech twsz));
  (match Flow.Checkpoint.load_latest ~tech ~dir with
  | Some l ->
    check_bool "NaN checkpoint skipped" true
      (l.Flow.Checkpoint.ck_step = Flow.Tbsz)
  | None -> Alcotest.fail "NaN checkpoint killed the resume");
  (* Electricals the device constructor refuses are an error too, never
     an exception. *)
  check_bool "negative electricals rejected" true
    (Result.is_error
       (Tree.composite_of_tokens ~tech
          [ "1"; "INV"; "-1"; "1"; "1"; "1"; "1"; "0.1"; "1" ]))

(* ---------- kill-and-resume bit-identity ---------- *)

let flow_config =
  { Core.Config.default with
    Core.Config.max_rounds = 25;
    speculation = 1 }

let run_flow ?checkpoint_dir ?(resume = false) sinks =
  Flow.run ~config:flow_config ?checkpoint_dir ~resume ~tech
    ~source:(Point.make 0 1_500_000) sinks

let test_resume_equivalence () =
  let sinks = random_sinks 909 25 2_000_000 in
  let full_dir = temp_dir "contango_full" in
  let a = run_flow ~checkpoint_dir:full_dir sinks in
  check_int "no incidents in the clean run" 0 (List.length a.Flow.incidents);
  (* every stage checkpointed *)
  List.iter
    (fun s ->
      check_bool
        (Flow.step_name s ^ " checkpointed")
        true
        (Sys.file_exists (Flow.Checkpoint.path ~dir:full_dir s)))
    [ Flow.Initial; Flow.Tbsz; Flow.Twsz; Flow.Twsn; Flow.Bwsn ];
  (* Simulate a SIGKILL after a prefix of stages by copying only those
     checkpoint files, then resume and compare bit-exactly. *)
  let copy src dst =
    let data =
      In_channel.with_open_bin src (fun ic -> In_channel.input_all ic)
    in
    Out_channel.with_open_bin dst (fun oc ->
        Out_channel.output_string oc data)
  in
  List.iter
    (fun kept ->
      let dir = temp_dir "contango_resume" in
      List.iter
        (fun s ->
          copy
            (Flow.Checkpoint.path ~dir:full_dir s)
            (Flow.Checkpoint.path ~dir s))
        kept;
      let b = run_flow ~checkpoint_dir:dir ~resume:true sinks in
      check_bool "resumed tree is bit-identical" true
        (Tree.digest b.Flow.tree = Tree.digest a.Flow.tree);
      check_bool "skew bit-identical" true
        (Int64.bits_of_float b.Flow.final.Ev.skew
        = Int64.bits_of_float a.Flow.final.Ev.skew);
      check_bool "clr bit-identical" true
        (Int64.bits_of_float b.Flow.final.Ev.clr
        = Int64.bits_of_float a.Flow.final.Ev.clr);
      check_int "full trace replayed" 5 (List.length b.Flow.trace))
    [ [ Flow.Initial ]; [ Flow.Initial; Flow.Tbsz; Flow.Twsz ] ];
  (* Resume with an empty directory = plain run from scratch. *)
  let empty = temp_dir "contango_empty" in
  let c = run_flow ~checkpoint_dir:empty ~resume:true sinks in
  check_bool "scratch resume identical" true
    (Tree.digest c.Flow.tree = Tree.digest a.Flow.tree)

(* ---------- Numerical_failure + degraded-mode retry ---------- *)

let test_numerical_failure_raised () =
  (* A NaN sink cap poisons the path-resistance moments; the Arnoldi
     engine must refuse (typed failure), not return NaN skew. *)
  let tree = Tree.create ~tech ~source_pos:(Point.make 0 0) in
  ignore
    (Tree.add_node tree
       ~kind:(Tree.Sink { cap = nan; parity = 0; label = "bad" })
       ~pos:(Point.make 50_000 0) ~parent:0 ());
  match Ev.evaluate ~engine:Ev.Arnoldi tree with
  | _ -> Alcotest.fail "NaN cap evaluated without a Numerical_failure"
  | exception Analysis.Numerics.Numerical_failure _ -> ()

let test_degraded_retry () =
  let sinks = random_sinks 606 25 2_000_000 in
  let config =
    { flow_config with Core.Config.inject_numerical_failures = 1 }
  in
  let seen = ref [] in
  let r =
    Flow.run ~config ~on_incident:(fun i -> seen := i :: !seen) ~tech
      ~source:(Point.make 0 1_500_000) sinks
  in
  (* The injected failure fired after INITIAL, was retried in degraded
     mode, and the flow still completed with a valid tree. *)
  check_bool "incident recorded" true (List.length r.Flow.incidents >= 1);
  check_int "on_incident streamed" (List.length r.Flow.incidents)
    (List.length !seen);
  let first = List.hd r.Flow.incidents in
  check_string "action" "retry-degraded" first.Flow.inc_action;
  check_int "first attempt" 0 first.Flow.inc_attempt;
  check_bool "injection named in the error" true
    (let e = first.Flow.inc_error in
     let needle = "injected" in
     let rec go i =
       i + String.length needle <= String.length e
       && (String.sub e i (String.length needle) = needle || go (i + 1))
     in
     go 0);
  Alcotest.(check (list string)) "final tree valid" []
    (Ctree.Validate.check r.Flow.tree);
  check_int "all five steps completed" 5 (List.length r.Flow.trace);
  check_bool "skew finite" true (Float.is_finite r.Flow.final.Ev.skew)

(* Two injected failures climb to the last rung (fixed mode, halved
   step, boxed kernel, width 1), which still evaluates through an
   incremental session. *)
let test_degraded_rung2 () =
  let sinks = random_sinks 606 25 2_000_000 in
  let config =
    { flow_config with
      Core.Config.inject_numerical_failures = 2;
      max_stage_retries = 2 }
  in
  let r = Flow.run ~config ~tech ~source:(Point.make 0 1_500_000) sinks in
  let retries =
    List.filter
      (fun i -> i.Flow.inc_action = "retry-degraded")
      r.Flow.incidents
  in
  Alcotest.(check (list int)) "retry attempts" [ 0; 1 ]
    (List.map (fun i -> i.Flow.inc_attempt) retries);
  let step = (List.hd retries).Flow.inc_step in
  check_bool "both retries in one step" true
    (List.for_all (fun i -> i.Flow.inc_step = step) retries);
  Alcotest.(check (list string)) "final tree valid" []
    (Ctree.Validate.check r.Flow.tree);
  check_int "all five steps completed" 5 (List.length r.Flow.trace);
  let row = List.find (fun e -> e.Flow.step = step) r.Flow.trace in
  check_bool "recovered step ran on a session" true
    (row.Flow.cache_hits + row.Flow.cache_misses > 0)

let test_retries_exhausted () =
  let sinks = random_sinks 303 25 2_000_000 in
  let config =
    { flow_config with Core.Config.inject_numerical_failures = 10 }
  in
  match
    Flow.run ~config ~tech ~source:(Point.make 0 1_500_000) sinks
  with
  | _ -> Alcotest.fail "10 injected failures survived 2 retries"
  | exception Analysis.Numerics.Numerical_failure _ -> ()

let () =
  Alcotest.run "checkpoint"
    [
      ("serialize",
       [
         Alcotest.test_case "random round-trip" `Quick test_roundtrip_random;
         Alcotest.test_case "label escaping" `Quick test_roundtrip_labels;
         Alcotest.test_case "tree fuzz" `Quick test_tree_of_string_fuzz;
       ]);
      ("format_io",
       [
         Alcotest.test_case "fuzz" `Quick test_format_io_fuzz;
         Alcotest.test_case "diagnostics" `Quick test_read_file_diagnostics;
       ]);
      ("persist",
       [ Alcotest.test_case "atomic + checksum" `Quick test_persist;
         Alcotest.test_case "fnv1a test vectors" `Quick test_fnv1a_vectors ]);
      ("checkpoint",
       [
         Alcotest.test_case "save/load" `Quick test_checkpoint_save_load;
         Alcotest.test_case "resume equivalence" `Slow
           test_resume_equivalence;
       ]);
      ("recovery",
       [
         Alcotest.test_case "numerical failure typed" `Quick
           test_numerical_failure_raised;
         Alcotest.test_case "degraded retry" `Slow test_degraded_retry;
         Alcotest.test_case "degraded rung 2" `Slow test_degraded_rung2;
         Alcotest.test_case "retries exhausted" `Quick
           test_retries_exhausted;
       ]);
    ]

module Tree = Ctree.Tree
module Evaluator = Analysis.Evaluator

type step = Initial | Tbsz | Twsz | Twsn | Bwsn | Stitch | Polish

(* Pipeline order: a step's rank is its index here, its name the
   checkpoint file name and the trace label. *)
let steps =
  [ (Initial, "INITIAL"); (Tbsz, "TBSZ"); (Twsz, "TWSZ"); (Twsn, "TWSN");
    (Bwsn, "BWSN"); (Stitch, "STITCH"); (Polish, "POLISH") ]

let step_name s = List.assoc s steps
let step_of_name n = List.assoc_opt n (List.map (fun (s, m) -> (m, s)) steps)
let rank s = Option.get (List.find_index (fun (x, _) -> x = s) steps)

type trace_entry = {
  step : step;
  skew : float;
  clr : float;
  t_max : float;
  eval_runs : int;
  seconds : float;
  cache_hits : int;
  cache_misses : int;
  step_seconds : float;
  kernel_solves : int;
  kernel_saved : int;
  kernel_truncations : int;
  attempts : int;
  accepts : int;
}

type incident = {
  inc_step : step;
  inc_attempt : int;
  inc_error : string;
  inc_action : string;
}

type stage_meta = {
  m_step : step;
  m_skew : float;
  m_clr : float;
  m_t_max : float;
  m_slew_waived : bool;
  m_cap_waived : bool;
}

type result = {
  tree : Tree.t;
  trace : trace_entry list;
  final : Evaluator.t;
  chosen_buf : Tech.Composite.t;
  polarity : Polarity.report;
  repair : Route.Repair.report option;
  incidents : incident list;
  eval_runs : int;
  seconds : float;
  surrogate : Analysis.Surrogate.stats option;
}

let initial_tree ?(config = Config.default) ~tech ~source ?(obstacles = [])
    sinks =
  let zst = Dme.Zst.build ~tech ~source sinks in
  let inserted = Insertion.run ~obstacles config zst in
  let polarity_buf =
    if config.Config.polarity_buf_count = 0 then inserted.Insertion.buf
    else
      Tech.Composite.make inserted.Insertion.buf.Tech.Composite.base
        config.Config.polarity_buf_count
  in
  let polarity =
    Polarity.correct inserted.Insertion.tree ~buf:polarity_buf
      ~strategy:Polarity.Minimal
  in
  (* Equalise per-path stage counts: the quantised van Ginneken variant
     and the polarity patches can leave paths a stage pair apart, which
     wire tuning cannot recover within slew limits. *)
  if config.Config.stage_balancing then
    ignore
      (Stage_balance.equalize inserted.Insertion.tree
         ~buf:inserted.Insertion.buf);
  (inserted.Insertion.tree, inserted.Insertion.buf, polarity,
   inserted.Insertion.repair)

let session_hooks s =
  { Speculate.eval =
      (fun ?edits t -> Evaluator.Incremental.refresh ?edits ~tree:t s);
    note =
      (fun ~edits ~new_revision ->
        Evaluator.Incremental.note_edits s ~edits ~new_revision) }

(* ------------------------------------------------------------------ *)
(* Verified on-disk checkpoints.

   A checkpoint captures everything [run] needs to restart after a
   completed stage: the flow metadata the pre-optimization stages
   produced (chosen composite, polarity report, obstacle repair report),
   the per-stage metrics recorded so far, and the canonical tree text.
   Files are written atomically with a checksum trailer, so a reader
   only ever sees a complete, verified snapshot (or none). *)

module Checkpoint = struct
  type loaded = {
    ck_step : step;
    ck_tree : Tree.t;
    ck_buf : Tech.Composite.t;
    ck_polarity : Polarity.report;
    ck_repair : Route.Repair.report option;
    ck_metas : stage_meta list;
  }

  exception Parse of string

  let path ~dir step = Filename.concat dir (step_name step ^ ".ckpt")

  let to_string ~step ~tree ~buf ~polarity ~repair ~metas =
    let b = Buffer.create 4096 in
    let pf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
    pf "contango-checkpoint 1\n";
    pf "step %s\n" (step_name step);
    pf "buf %s\n" (Tree.composite_to_tokens buf);
    pf "polarity %d %d\n" polarity.Polarity.inverted_before
      polarity.Polarity.added;
    (match repair with
    | None -> ()
    | Some r ->
      pf "repair %d %d %d %d %d\n" r.Route.Repair.bend_flips
        r.Route.Repair.detours r.Route.Repair.drivable_skips
        r.Route.Repair.reroutes r.Route.Repair.remaining_overlap);
    List.iter
      (fun m ->
        pf "meta %s %h %h %h %d %d\n" (step_name m.m_step) m.m_skew m.m_clr
          m.m_t_max
          (if m.m_slew_waived then 1 else 0)
          (if m.m_cap_waived then 1 else 0))
      metas;
    pf "tree\n";
    Buffer.add_string b (Tree.to_string tree);
    Buffer.contents b

  let save ~dir ~step ~tree ~buf ~polarity ~repair ~metas =
    Persist.write_atomic_checked (path ~dir step)
      (to_string ~step ~tree ~buf ~polarity ~repair ~metas)

  let of_string ~tech text =
    try
      let int_ s =
        match int_of_string_opt s with
        | Some v -> v
        | None -> raise (Parse (Printf.sprintf "not an integer: %S" s))
      in
      let float_ s =
        match float_of_string_opt s with
        | Some v -> v
        | None -> raise (Parse (Printf.sprintf "not a number: %S" s))
      in
      let flag = function
        | "0" -> false
        | "1" -> true
        | s -> raise (Parse (Printf.sprintf "not a flag: %S" s))
      in
      let tree_marker = "\ntree\n" in
      let split_at =
        if String.length text >= 5 && String.sub text 0 5 = "tree\n" then
          Some (0, 5)
        else begin
          let rec find i =
            if i + 6 > String.length text then None
            else if String.sub text i 6 = tree_marker then Some (i + 1, i + 6)
            else find (i + 1)
          in
          find 0
        end
      in
      let header_end, tree_start =
        match split_at with
        | Some p -> p
        | None -> raise (Parse "missing tree section")
      in
      let header = String.sub text 0 header_end in
      let tree_text =
        String.sub text tree_start (String.length text - tree_start)
      in
      let step = ref None and buf = ref None and polarity = ref None in
      let repair = ref None and metas = ref [] in
      let versioned = ref false in
      List.iter
        (fun line ->
          match
            String.split_on_char ' ' line |> List.filter (fun s -> s <> "")
          with
          | [] -> ()
          | [ "contango-checkpoint"; "1" ] -> versioned := true
          | "contango-checkpoint" :: _ ->
            raise (Parse "unsupported checkpoint version")
          | [ "step"; name ] -> (
            match step_of_name name with
            | Some s -> step := Some s
            | None -> raise (Parse ("unknown step " ^ name)))
          | "buf" :: tokens -> (
            match Tree.composite_of_tokens ~tech tokens with
            | Ok b -> buf := Some b
            | Error e -> raise (Parse ("buf line: " ^ e)))
          | [ "polarity"; before; added ] ->
            polarity :=
              Some
                { Polarity.inverted_before = int_ before;
                  added = int_ added }
          | [ "repair"; bf; dt; ds; rr; ro ] ->
            repair :=
              Some
                { Route.Repair.bend_flips = int_ bf; detours = int_ dt;
                  drivable_skips = int_ ds; reroutes = int_ rr;
                  remaining_overlap = int_ ro }
          | [ "meta"; name; skew; clr; tmax; sw; cw ] -> (
            match step_of_name name with
            | None -> raise (Parse ("unknown meta step " ^ name))
            | Some s ->
              metas :=
                { m_step = s; m_skew = float_ skew; m_clr = float_ clr;
                  m_t_max = float_ tmax; m_slew_waived = flag sw;
                  m_cap_waived = flag cw }
                :: !metas)
          | d :: _ -> raise (Parse ("unknown checkpoint directive " ^ d)))
        (String.split_on_char '\n' header);
      if not !versioned then raise (Parse "missing checkpoint version line");
      let ck_step =
        match !step with
        | Some s -> s
        | None -> raise (Parse "missing step line")
      in
      let ck_buf =
        match !buf with
        | Some b -> b
        | None -> raise (Parse "missing buf line")
      in
      let ck_polarity =
        match !polarity with
        | Some p -> p
        | None -> raise (Parse "missing polarity line")
      in
      match Tree.of_string ~tech tree_text with
      | Error e -> Error ("tree section: " ^ e)
      | Ok ck_tree -> (
        match Ctree.Validate.check ck_tree with
        | [] ->
          Ok
            { ck_step; ck_tree; ck_buf; ck_polarity; ck_repair = !repair;
              ck_metas = List.rev !metas }
        | errs -> Error ("invalid tree: " ^ String.concat "; " errs))
    with
    | Parse m -> Error m
    | Invalid_argument m -> Error m

  let load ~tech file =
    match Persist.read_checked file with
    | Error e -> Error e
    | Ok text -> (
      match of_string ~tech text with
      | Ok l -> Ok l
      | Error e -> Error (file ^ ": " ^ e))

  (* Latest verified checkpoint in [dir]: later stages first, silently
     skipping missing, torn or corrupt files — a corrupt BWSN snapshot
     degrades the resume to the TWSN one instead of failing it. *)
  let load_latest ~tech ~dir =
    List.fold_left
      (fun acc step ->
        match acc with
        | Some _ -> acc
        | None -> (
          let file = path ~dir step in
          if not (Sys.file_exists file) then None
          else
            match load ~tech file with Ok l -> Some l | Error _ -> None))
      None
      [ Bwsn; Twsn; Twsz; Tbsz; Initial ]
end

(* Stage-local invariant failure: [Validate.check] found structural
   damage after a stage body ran. Caught by the retry machinery. *)
exception Invariant_violation of string list

let () =
  Printexc.register_printer (function
    | Invariant_violation errs ->
      Some
        (Printf.sprintf "Invariant_violation(%s)" (String.concat "; " errs))
    | _ -> None)

let meta_of step (ev : Evaluator.t) =
  { m_step = step; m_skew = ev.Evaluator.skew; m_clr = ev.Evaluator.clr;
    m_t_max = ev.Evaluator.t_max;
    m_slew_waived = ev.Evaluator.slew_violations > 0;
    m_cap_waived = not ev.Evaluator.cap_ok }

(* An incremental session under [c]'s evaluation numerics. *)
let session ?parallel ?store (c : Config.t) tree =
  Evaluator.Incremental.create ~engine:c.Config.engine ~flat:c.Config.flat
    ~seg_len:c.Config.seg_len ?parallel
    ~transient_step:c.Config.transient_step
    ~transient_mode:c.Config.transient_mode ?store tree

(* ------------------------------------------------------------------ *)
(* Per-run step recorder, shared by [run] and [run_regional]: the
   cumulative baselines, the trace and incident lists, the streaming
   callbacks, stage checkpoints and the deadline check.

   Every counter in a trace row is a per-step delta against the previous
   row, or against [mark] where a driver's steps begin (work before that
   belongs to no step). [eval_runs] and [seconds] stay cumulative from
   the recorder's creation, as documented. *)

type recorder = {
  t0 : float;
  runs0 : int;
  on_step : (trace_entry -> unit) option;
  on_incident : (incident -> unit) option;
  mutable trace : trace_entry list;  (* newest first *)
  mutable incidents : incident list;  (* newest first *)
  mutable cache_stats : unit -> int * int;
      (* the attached session's cumulative (hits, misses) *)
  mutable last_t : float;
  mutable last_kc : Analysis.Transient.counters;
  mutable last_att : int;
  mutable last_acc : int;
  mutable last_hits : int;
  mutable last_misses : int;
}

let recorder ?on_step ?on_incident () =
  let t0 = Monoclock.now () in
  { t0; runs0 = Evaluator.eval_count (); on_step; on_incident; trace = [];
    incidents = []; cache_stats = (fun () -> (0, 0)); last_t = t0;
    last_kc = Analysis.Transient.counters (); last_att = Ivc.attempts ();
    last_acc = Ivc.accepts (); last_hits = 0; last_misses = 0 }

(* The next row's deltas start here: work before a driver's first step
   (tree construction, the region flows) is pre-step time. *)
let mark rc =
  rc.last_t <- Monoclock.now ();
  rc.last_kc <- Analysis.Transient.counters ();
  rc.last_att <- Ivc.attempts ();
  rc.last_acc <- Ivc.accepts ()

(* Rows report [s]'s cache traffic from now on; a session rebuilt for a
   retry counts from zero. *)
let attach rc s =
  rc.cache_stats <-
    (fun () ->
      let st = Evaluator.Incremental.stats s in
      (st.Evaluator.hits, st.Evaluator.misses));
  rc.last_hits <- 0;
  rc.last_misses <- 0

let emit rc entry =
  rc.trace <- entry :: rc.trace;
  Option.iter (fun f -> f entry) rc.on_step

(* [extra_attempts]/[extra_accepts] count moves a driver made outside
   {!Ivc} (the regional polish rounds). *)
let record ?(extra_attempts = 0) ?(extra_accepts = 0) rc step
    (ev : Evaluator.t) =
  let module T = Analysis.Transient in
  let now = Monoclock.now () in
  let hits, misses = rc.cache_stats () in
  let kc = T.counters () in
  let att = Ivc.attempts () and acc = Ivc.accepts () in
  let entry =
    { step; skew = ev.Evaluator.skew; clr = ev.Evaluator.clr;
      t_max = ev.Evaluator.t_max;
      eval_runs = Evaluator.eval_count () - rc.runs0;
      seconds = now -. rc.t0;
      cache_hits = hits - rc.last_hits;
      cache_misses = misses - rc.last_misses;
      step_seconds = now -. rc.last_t;
      kernel_solves = kc.T.total_solves - rc.last_kc.T.total_solves;
      kernel_saved = kc.T.total_saved - rc.last_kc.T.total_saved;
      kernel_truncations =
        kc.T.total_truncations - rc.last_kc.T.total_truncations;
      attempts = att - rc.last_att + extra_attempts;
      accepts = acc - rc.last_acc + extra_accepts }
  in
  rc.last_t <- now;
  rc.last_kc <- kc;
  rc.last_att <- att;
  rc.last_acc <- acc;
  rc.last_hits <- hits;
  rc.last_misses <- misses;
  emit rc entry

(* Rows for the steps a resumed run skips: the metrics come from the
   checkpoint, the per-step counters are zero (no work was repeated). *)
let replay rc metas =
  List.iter
    (fun m ->
      emit rc
        { step = m.m_step; skew = m.m_skew; clr = m.m_clr; t_max = m.m_t_max;
          eval_runs = Evaluator.eval_count () - rc.runs0;
          seconds = Monoclock.now () -. rc.t0; cache_hits = 0;
          cache_misses = 0; step_seconds = 0.; kernel_solves = 0;
          kernel_saved = 0; kernel_truncations = 0; attempts = 0;
          accepts = 0 })
    metas

let note rc inc =
  rc.incidents <- inc :: rc.incidents;
  Option.iter (fun f -> f inc) rc.on_incident

let incident rc step attempt error action =
  note rc
    { inc_step = step; inc_attempt = attempt; inc_error = error;
      inc_action = action }

let deadline rc step attempt =
  incident rc step attempt "deadline exceeded" "deadline";
  raise Ivc.Deadline_exceeded

(* Persist a completed step when [dir] is set. Structural invariants
   were checked by the caller; the electrical gate refuses to persist a
   state whose headline numbers are not finite (a truncated march's
   [infinity] latency is not a verified state). Slew/cap violations do
   not block — they are recorded as waived in the stage meta. An
   unwritable checkpoint must not fail (or retry) an otherwise
   successful step — the run just loses this resume point. *)
let checkpoint rc ?dir ~step ~attempt (ev : Evaluator.t) ~tree ~buf
    ~polarity ~repair ~metas =
  Option.iter
    (fun dir ->
      if
        Float.is_finite ev.Evaluator.skew
        && Float.is_finite ev.Evaluator.clr
        && Float.is_finite ev.Evaluator.t_max
      then (
        try Checkpoint.save ~dir ~step ~tree ~buf ~polarity ~repair ~metas
        with e ->
          incident rc step attempt (Printexc.to_string e) "checkpoint-skipped")
      else
        incident rc step attempt "non-finite skew/CLR/latency"
          "checkpoint-skipped")
    dir

let finish rc ~tree ~final ~chosen_buf ~polarity ~repair ~surrogate =
  { tree; trace = List.rev rc.trace; final; chosen_buf; polarity; repair;
    incidents = List.rev rc.incidents;
    eval_runs = Evaluator.eval_count () - rc.runs0;
    seconds = Monoclock.now () -. rc.t0; surrogate }

(* ------------------------------------------------------------------ *)
(* The monolithic flow. *)

let run ?(config = Config.default) ?on_step ?on_incident ?checkpoint_dir
    ?(resume = false) ~tech ~source ?(obstacles = []) sinks =
  if config.Config.speculation < 0 then
    invalid_arg "Flow.run: Config.speculation must be >= 0";
  let rc = recorder ?on_step ?on_incident () in
  let loaded =
    if resume then
      Option.bind checkpoint_dir (fun dir ->
          Checkpoint.load_latest ~tech ~dir)
    else None
  in
  let tree0, chosen_buf, polarity, repair, resumed_metas, completed_rank =
    match loaded with
    | Some l ->
      (l.Checkpoint.ck_tree, l.ck_buf, l.ck_polarity, l.ck_repair,
       l.ck_metas, rank l.ck_step)
    | None ->
      let tree, buf, pol, rep =
        initial_tree ~config ~tech ~source ~obstacles sinks
      in
      (tree, buf, pol, rep, [], -1)
  in
  let tree = ref tree0 in
  let metas = ref resumed_metas in
  let baseline : Evaluator.t option ref = ref None in
  (* Fault injection (tests and drills): armed once the INITIAL
     evaluation is recorded, the next [inject_numerical_failures]
     evaluations — through any lane's hooks — raise instead of
     returning, exercising the same recovery path a real numerical
     blow-up takes. *)
  let inject_left = Atomic.make config.Config.inject_numerical_failures in
  let inject_armed = ref false in
  let wrap_hooks hooks =
    if config.Config.inject_numerical_failures = 0 then hooks
    else
      { Speculate.eval =
          (fun ?edits t ->
            if !inject_armed && Atomic.get inject_left > 0 then
              if Atomic.fetch_and_add inject_left (-1) > 0 then
                Analysis.Numerics.fail "injected numerical failure";
            hooks.Speculate.eval ?edits t);
        note = hooks.Speculate.note }
  in
  (* The degraded-mode ladder: attempt 0 is the caller's configuration;
     attempt 1 turns speculation serial and pins the transient kernel to
     the fixed-rate reference march; attempt 2 additionally halves the
     timestep and retreats from the flat kernel to the boxed reference
     path. Every rung changes numerics only — evaluation stays on an
     incremental session. Later attempts (when [max_stage_retries] is
     raised) stay at the most conservative rung. *)
  let degraded_config k =
    if k = 0 then config
    else begin
      let c =
        { config with
          Config.speculation = 1;
          transient_mode = Analysis.Transient.Fixed }
      in
      if k = 1 then c
      else
        { c with
          Config.transient_step = config.Config.transient_step /. 2.;
          flat = false }
    end
  in
  (* One surrogate calibration state per run (never shared across
     domains — regional and suite fan-outs each create their own), armed
     only when the caller opted in. *)
  let surrogate_state =
    if config.Config.surrogate then Some (Analysis.Surrogate.create ())
    else None
  in
  (* One incremental session drives every CNE of the optimization steps:
     the session survives IVC attempt/rollback cycles, so stages untouched
     by a rejected or localised move are answered from cache. [refresh
     ~tree] rebinds because Buffer_slide.respace returns a rebuilt tree.
     On a stage retry the session is rebuilt from scratch over the
     restored tree — its caches are content-addressed, so a rebuild costs
     misses, never correctness. *)
  let configure ~degraded =
    let c = degraded_config degraded in
    (* The shared cross-request store is only safe while the kernel
       settings match what its keys were computed under: degraded
       retries relax mode and step, so they run self-contained. *)
    let store = if degraded = 0 then c.Config.store else None in
    let s = session ?store c !tree in
    attach rc s;
    (* Degraded retries run without surrogate ranking: recovery should
       take the conservative, fully-evaluated path. *)
    { c with
      Config.spec =
        Some
          (Speculate.serial ~main:!tree
             ~hooks:(wrap_hooks (session_hooks s)));
      surrogate_state = (if degraded = 0 then surrogate_state else None) }
  in
  let cfg = ref (configure ~degraded:0) in
  let evaluate t = Ivc.evaluate !cfg t in
  let ensure_baseline () =
    match !baseline with
    | Some ev -> ev
    | None ->
      let ev = evaluate !tree in
      baseline := Some ev;
      ev
  in
  (* Speculation context over the flow's main tree: [width] replica
     lanes, each with its own incremental session ([~parallel:false] —
     the lanes themselves run on the domain pool). The main lane keeps
     the primary session and sits out parallel batches. *)
  let install_spec () =
    let c = !cfg in
    let slot_hooks replica =
      wrap_hooks (session_hooks (session ~parallel:false c replica))
    in
    let spec =
      Speculate.create ~width:(Config.speculation_width c) ~main:!tree
        ~main_hooks:(Speculate.hooks (Option.get c.Config.spec)) ~slot_hooks
    in
    cfg := { c with Config.spec = Some spec }
  in
  replay rc resumed_metas;
  mark rc;
  (* Run one stage under the retry umbrella: snapshot the tree, run the
     body, check structural invariants, record the step and (when
     verified) checkpoint it. Any failure except a cooperative deadline
     rolls the tree back to the snapshot, rebuilds the evaluation
     machinery one rung down the degraded ladder and retries; after a
     degraded attempt succeeds the normal configuration is restored for
     the following stages. *)
  let run_stage step body =
    let rec attempt k =
      let entry_snapshot = Tree.copy !tree in
      match
        let ev = body () in
        (match Ctree.Validate.check !tree with
        | [] -> ()
        | errs -> raise (Invariant_violation errs));
        ev
      with
      | ev ->
        record rc step ev;
        metas := !metas @ [ meta_of step ev ];
        checkpoint rc ?dir:checkpoint_dir ~step ~attempt:k ev ~tree:!tree
          ~buf:chosen_buf ~polarity ~repair ~metas:!metas;
        if k > 0 then begin
          (* Recovered in degraded mode: restore the caller's
             configuration for the remaining stages and force the next
             baseline to be re-evaluated under it. *)
          cfg := configure ~degraded:0;
          if rank step >= rank Tbsz then install_spec ();
          baseline := None
        end;
        ev
      | exception Ivc.Deadline_exceeded -> deadline rc step k
      | exception e when k < config.Config.max_stage_retries ->
        incident rc step k (Printexc.to_string e) "retry-degraded";
        tree := entry_snapshot;
        cfg := configure ~degraded:(k + 1);
        if rank step > rank Tbsz then install_spec ();
        baseline := None;
        attempt (k + 1)
      | exception e ->
        incident rc step k (Printexc.to_string e) "gave-up";
        raise e
    in
    attempt 0
  in
  let do_stage step body =
    if rank step > completed_rank then ignore (run_stage step body)
  in
  if completed_rank >= rank Tbsz then install_spec ();
  do_stage Initial (fun () ->
      (* Elmore-driven pre-balance (§III-A: simple analytical models
         first): the buffered tree out of the quantised DP can carry
         large path-delay imbalance at scale; Elmore evaluations are
         near-free, so a snaking equalisation under the Elmore engine
         recovers the bulk before any accurate run is spent — no session
         here, it runs a different engine. *)
      if !cfg.Config.elmore_prebalance then begin
        let pre_config =
          { !cfg with
            Config.engine = Analysis.Evaluator.Elmore_model;
            max_rounds = 30;
            spec = None }
        in
        let pre_eval =
          Evaluator.evaluate ~engine:Analysis.Evaluator.Elmore_model
            ~seg_len:!cfg.Config.seg_len !tree
        in
        ignore (Wiresnaking.run pre_config !tree ~baseline:pre_eval)
      end;
      let ev = evaluate !tree in
      baseline := Some ev;
      ev);
  inject_armed := true;
  do_stage Tbsz (fun () ->
      (* TBSZ: slide/interleave the trunk chain, then iterative sizing. *)
      let base_ev = ensure_baseline () in
      let ceiling =
        Float.min
          (Route.Slewcap.lumped ~tech ~buf:chosen_buf ())
          (Route.Slewcap.wire_aware ~tech ~buf:chosen_buf ())
      in
      let slid, _slide_report = Buffer_slide.respace !tree ~ceiling in
      let ev = evaluate slid in
      (* Keep the slid tree only if it did not break anything (IVC). *)
      let accepted, acc_ev =
        if
          ev.Evaluator.slew_violations <= base_ev.Evaluator.slew_violations
          && ev.Evaluator.cap_ok
        then (slid, ev)
        else (!tree, base_ev)
      in
      tree := accepted;
      (* The tree identity is now final for the rest of the flow, so the
         speculation context can be built over it. *)
      install_spec ();
      let sized = Buffer_sizing.run !cfg !tree ~baseline:acc_ev in
      (* Speed-up before slow-down (§III-B): strengthen drivers of
         critical subtrees so less slack has to be burned by the wire
         steps. *)
      let sped, _ =
        Buffer_sizing.speedup !cfg !tree ~baseline:sized.Buffer_sizing.eval
      in
      baseline := Some sped;
      sped);
  do_stage Twsz (fun () ->
      let wsz = Wiresizing.run !cfg !tree ~baseline:(ensure_baseline ()) in
      baseline := Some wsz.Wiresizing.eval;
      wsz.Wiresizing.eval);
  do_stage Twsn (fun () ->
      let wsn = Wiresnaking.run !cfg !tree ~baseline:(ensure_baseline ()) in
      baseline := Some wsn.Wiresnaking.eval;
      wsn.Wiresnaking.eval);
  let final_eval =
    if rank Bwsn <= completed_rank then ensure_baseline ()
    else
      run_stage Bwsn (fun () ->
          let bl = Bottomlevel.run !cfg !tree ~baseline:(ensure_baseline ()) in
          (* "Further optimization is possible … at the cost of increased
             runtime" (§I): when skew is still above the negligible band,
             run the wire sequence once more — larger instances sometimes
             converge in two passes. *)
          let ev =
            if
              bl.Bottomlevel.eval.Evaluator.skew
              > !cfg.Config.second_pass_skew_ps
            then begin
              let wsz2 =
                Wiresizing.run !cfg !tree ~baseline:bl.Bottomlevel.eval
              in
              let wsn2 =
                Wiresnaking.run !cfg !tree ~baseline:wsz2.Wiresizing.eval
              in
              let bl2 =
                Bottomlevel.run !cfg !tree ~baseline:wsn2.Wiresnaking.eval
              in
              bl2.Bottomlevel.eval
            end
            else bl.Bottomlevel.eval
          in
          baseline := Some ev;
          ev)
  in
  finish rc ~tree:!tree ~final:final_eval ~chosen_buf ~polarity ~repair
    ~surrogate:(Option.map Analysis.Surrogate.stats surrogate_state)

(* ------------------------------------------------------------------ *)
(* Regional synthesis: partition the sinks geometrically, run the full
   monolithic flow over every region in parallel (each with the region
   centroid as its source), synthesize a top-level tree over pseudo-sinks
   at those centroids, graft the regional trees onto its taps by
   abutment, and close the loop with a measured global polish that snakes
   the top-level tap feeds until the stitched skew converges. *)

type region_report = {
  rg_index : int;
  rg_sinks : int;
  rg_skew : float;
  rg_clr : float;
  rg_t_max : float;
  rg_seconds : float;
  rg_eval_runs : int;
  rg_incidents : int;
}

type stitch_report = {
  st_regions : region_report list;
  st_predicted_skew : float;
  st_rounds : int;
  st_max_pad_ps : float;
}

type regional_result = {
  r_flow : result;
  r_stitch : stitch_report option;
}

let region_label i = Printf.sprintf "__region%d" i

(* Polish rounds are bounded independently of [max_rounds]: each round is
   one whole-tree balancing edit plus one (incremental) evaluation, and
   the damped gap shrinks geometrically, so convergence is fast or not at
   all. *)
let max_polish_rounds = 4

let run_regional ?(config = Config.default) ?on_step ?on_incident
    ?checkpoint_dir ?(resume = false) ?jobs ~tech ~source ?(obstacles = [])
    sinks =
  let n = Array.length sinks in
  (* Never let a region shrink below two sinks: degenerate cells stitch
     poorly and gain nothing over the monolithic flow. *)
  let regions = max 1 (min config.Config.regions (n / 2)) in
  if regions <= 1 then
    { r_flow =
        run ~config ?on_step ?on_incident ?checkpoint_dir ~resume ~tech
          ~source ~obstacles sinks;
      r_stitch = None }
  else begin
    let rc = recorder ?on_step ?on_incident () in
    (* Fast resume: a verified POLISH checkpoint is the completed regional
       flow. Region membership is not recoverable from the stitched tree,
       so the per-region telemetry is gone, but the tree, metadata and
       headline metrics all survive at the cost of one evaluation. *)
    let polish_ckpt =
      if resume then
        Option.bind checkpoint_dir (fun dir ->
            let file = Checkpoint.path ~dir Polish in
            if not (Sys.file_exists file) then None
            else
              match Checkpoint.load ~tech file with
              | Ok l when l.Checkpoint.ck_step = Polish -> Some l
              | Ok _ | Error _ -> None)
      else None
    in
    match polish_ckpt with
    | Some l ->
      let ev =
        match Ivc.evaluate config l.Checkpoint.ck_tree with
        | exception Ivc.Deadline_exceeded -> deadline rc Polish 0
        | ev -> ev
      in
      replay rc l.Checkpoint.ck_metas;
      { r_flow =
          finish rc ~tree:l.Checkpoint.ck_tree ~final:ev
            ~chosen_buf:l.Checkpoint.ck_buf ~polarity:l.Checkpoint.ck_polarity
            ~repair:l.Checkpoint.ck_repair ~surrogate:None;
        r_stitch = None }
    | None ->
      let parts = Partition.split ~regions sinks in
      let regions = Array.length parts in
      let centroids = Array.map (Partition.centroid sinks) parts in
      (* Region and top flows run monolithically whatever the caller's
         region count says, each under its own checkpoint subdirectory. *)
      let sub_config = { config with Config.regions = 1 } in
      let sub_dir name =
        Option.map (fun d -> Filename.concat d name) checkpoint_dir
      in
      (* Heaviest region first, so the pool never tail-waits on the big
         one. Incidents are collected per region and forwarded serially
         afterwards — [on_incident] is not required to be thread-safe. *)
      let region_runs =
        let pool = Analysis.Domain_pool.create ?size:jobs () in
        Fun.protect
          ~finally:(fun () -> Analysis.Domain_pool.shutdown pool)
          (fun () ->
            Analysis.Domain_pool.map_weighted pool
              ~weight:(fun i -> Array.length parts.(i))
              (fun i ->
                let region_sinks = Array.map (Array.get sinks) parts.(i) in
                let incs = ref [] in
                let r =
                  run ~config:sub_config
                    ~on_incident:(fun inc -> incs := inc :: !incs)
                    ?checkpoint_dir:(sub_dir (Printf.sprintf "region_%d" i))
                    ~resume ~tech ~source:centroids.(i) ~obstacles
                    region_sinks
                in
                (r, List.rev !incs))
              (Array.init regions Fun.id))
      in
      Array.iter
        (fun ((_ : result), incs) -> List.iter (note rc) incs)
        region_runs;
      (* The stitching top tree: one pseudo-sink per region at the region
         centroid, loaded with the regional root buffer's input pin and
         carrying its inversion parity, so sink parities survive the
         graft. *)
      let pseudo_sinks =
        Array.mapi
          (fun i (r, _) ->
            { Dme.Zst.pos = centroids.(i);
              cap = Tech.Composite.c_in r.chosen_buf;
              parity = (if Tech.Composite.inverting r.chosen_buf then 1 else 0);
              label = region_label i })
          region_runs
      in
      let top =
        let incs = ref [] in
        let r =
          run ~config:sub_config
            ~on_incident:(fun inc -> incs := inc :: !incs)
            ?checkpoint_dir:(sub_dir "top") ~resume ~tech ~source ~obstacles
            pseudo_sinks
        in
        List.iter (note rc) !incs;
        r
      in
      (* The region and top flows are pre-step time: STITCH covers the
         graft and the stitched evaluation. *)
      mark rc;
      let stitched = top.tree in
      let taps =
        let tbl = Hashtbl.create (2 * regions) in
        Array.iter
          (fun s ->
            match (Tree.node stitched s).Tree.kind with
            | Tree.Sink sk -> Hashtbl.replace tbl sk.Tree.label s
            | Tree.Source | Tree.Internal | Tree.Buffer _ -> ())
          (Tree.sinks stitched);
        Array.init regions (fun i ->
            match Hashtbl.find_opt tbl (region_label i) with
            | Some s -> s
            | None ->
              raise
                (Invariant_violation
                   [ "run_regional: top tree lost tap " ^ region_label i ]))
      in
      (* Predicted cross-region figures before the stitched evaluation:
         each region's local arrivals shifted by the measured top-tree tap
         arrival plus the tap buffer's nominal gate delay. *)
      let nominal_corner = List.hd tech.Tech.corners in
      let tap_offset i (r : result) =
        let at f =
          let rr = Evaluator.nominal_run top.final Evaluator.Rise in
          let rf = Evaluator.nominal_run top.final Evaluator.Fall in
          (f rr +. f rf) /. 2.
        in
        let tap = taps.(i) in
        let arrival = at (fun (run : Evaluator.run) -> run.Evaluator.latency.(tap)) in
        let slew = at (fun (run : Evaluator.run) -> run.Evaluator.slew.(tap)) in
        arrival
        +. (Tech.Composite.d_intrinsic r.chosen_buf
            *. nominal_corner.Tech.Corner.d_scale)
        +. (Tech.Composite.slew_coeff r.chosen_buf *. slew)
      in
      let offset_parts =
        Array.to_list
          (Array.mapi (fun i (r, _) -> (tap_offset i r, r.final)) region_runs)
      in
      let predicted = Analysis.Regional.combine ~tech offset_parts in
      let pads = Analysis.Regional.pad_targets offset_parts in
      let max_pad = Array.fold_left Float.max 0. pads in
      (* Abutment graft: every regional tree is copied under its tap,
         which becomes the regional root buffer. *)
      let region_sink_ids =
        Array.mapi
          (fun i (r, _) ->
            let map =
              Tree.graft stitched ~at:taps.(i) ~buf:r.chosen_buf ~src:r.tree
            in
            Array.map (Array.get map) (Tree.sinks r.tree))
          region_runs
      in
      (match Ctree.Validate.check stitched with
      | [] -> ()
      | errs -> raise (Invariant_violation errs));
      (* Regions synthesized independently need not agree on per-path
         stage counts — a stage-pair gap between two regions is two gate
         delays of cross-region skew (with rise/fall asymmetry) that no
         wire tuning can repay. Same remedy as the monolithic flow's
         initial tree: parity-preserving inverter-pair insertion. *)
      if config.Config.stage_balancing then
        ignore (Stage_balance.equalize stitched ~buf:top.chosen_buf);
      (* STITCH and POLISH evaluate through one incremental session over
         the stitched tree, installed as a serial context so every
         evaluation and rollback goes through {!Ivc}. *)
      let stitch_session = session config stitched in
      attach rc stitch_session;
      let polish_cfg =
        { config with
          Config.regions = 1;
          spec =
            Some
              (Speculate.serial ~main:stitched
                 ~hooks:(session_hooks stitch_session)) }
      in
      let stitched_ev =
        match Ivc.evaluate polish_cfg stitched with
        | exception Ivc.Deadline_exceeded -> deadline rc Stitch 0
        | ev -> ev
      in
      record rc Stitch stitched_ev;
      (* Global polish: per round, measure every region's nominal latency
         window on the stitched tree, snake the tap feed of each lagging
         region towards the slowest one (damped), refresh through the
         dirty-set fast path and keep the edit only if the global skew
         strictly improved (by 1e-9 ps, not IVC's 1e-3 band) without new
         violations. A rejected round halves the damping — the linear
         snake model overshoots near convergence. *)
      let best = ref stitched_ev in
      let rounds = ref 0 and accepts = ref 0 in
      let polish () =
        let damping = ref config.Config.damping in
        let continue_ = ref true in
        while
          !continue_ && !rounds < max_polish_rounds
          && !best.Evaluator.skew > config.Config.stitch_skew_ps
        do
          Ivc.check_deadline polish_cfg;
          incr rounds;
          let sens = Probes.sensitivities stitched in
          let mid i =
            let ids = region_sink_ids.(i) in
            let lo = ref infinity and hi = ref neg_infinity in
            List.iter
              (fun (run : Evaluator.run) ->
                Array.iter
                  (fun s ->
                    let l = run.Evaluator.latency.(s) in
                    if not (Float.is_nan l) then begin
                      if l < !lo then lo := l;
                      if l > !hi then hi := l
                    end)
                  ids)
              [ Evaluator.nominal_run !best Evaluator.Rise;
                Evaluator.nominal_run !best Evaluator.Fall ];
            (!lo +. !hi) /. 2.
          in
          let mids = Array.init regions mid in
          let lead = Array.fold_left Float.max neg_infinity mids in
          let unit = config.Config.snake_unit in
          let deltas =
            Array.mapi
              (fun i m ->
                let gap_ps = (lead -. m) *. !damping in
                let per_nm = sens.Probes.snake_delay.(taps.(i)) in
                if gap_ps <= 0. || per_nm <= 1e-12 then 0
                else
                  let nm =
                    min
                      (int_of_float (gap_ps /. per_nm))
                      config.Config.max_snake_per_round
                  in
                  nm / unit * unit)
              mids
          in
          if Array.for_all (fun d -> d = 0) deltas then continue_ := false
          else begin
            let j = Tree.Journal.start stitched in
            Array.iteri
              (fun i d ->
                if d > 0 then
                  Tree.set_snake stitched taps.(i)
                    ((Tree.node stitched taps.(i)).Tree.snake + d))
              deltas;
            let ev =
              try Ivc.evaluate ~journal:j polish_cfg stitched
              with e ->
                Ivc.rollback polish_cfg stitched j;
                raise e
            in
            if
              ev.Evaluator.skew < !best.Evaluator.skew -. 1e-9
              && ev.Evaluator.slew_violations
                 <= !best.Evaluator.slew_violations
              && (ev.Evaluator.cap_ok || not !best.Evaluator.cap_ok)
            then begin
              Tree.Journal.commit j;
              best := ev;
              incr accepts
            end
            else begin
              Ivc.rollback polish_cfg stitched j;
              damping := !damping /. 2.;
              if !damping < 0.05 then continue_ := false
            end
          end
        done;
        (* The tap feeds alone cannot repay a large inter-region latency
           gap: a single multi-millimetre snake breaks the slew limit at
           the tap buffer's input and every such round is rejected. The
           proven top-down wiresnaking pass finishes the job — it
           distributes the remaining padding over the grafted subtrees
           under per-site slew headroom and RSlack budgets, through the
           same incremental session. *)
        if !best.Evaluator.skew > config.Config.stitch_skew_ps then
          best :=
            (Wiresnaking.run polish_cfg stitched ~baseline:!best)
              .Wiresnaking.eval
      in
      (try polish () with Ivc.Deadline_exceeded -> deadline rc Polish 0);
      record rc Polish !best ~extra_attempts:!rounds ~extra_accepts:!accepts;
      let polarity =
        Array.fold_left
          (fun acc ((r : result), _) ->
            { Polarity.inverted_before =
                acc.Polarity.inverted_before
                + r.polarity.Polarity.inverted_before;
              added = acc.Polarity.added + r.polarity.Polarity.added })
          top.polarity region_runs
      in
      checkpoint rc ?dir:checkpoint_dir ~step:Polish ~attempt:0 !best
        ~tree:stitched ~buf:top.chosen_buf ~polarity ~repair:top.repair
        ~metas:[ meta_of Stitch stitched_ev; meta_of Polish !best ];
      let st_regions =
        Array.to_list
          (Array.mapi
             (fun i ((r : result), incs) ->
               { rg_index = i; rg_sinks = Array.length parts.(i);
                 rg_skew = r.final.Evaluator.skew;
                 rg_clr = r.final.Evaluator.clr;
                 rg_t_max = r.final.Evaluator.t_max;
                 rg_seconds = r.seconds; rg_eval_runs = r.eval_runs;
                 rg_incidents = List.length incs })
             region_runs)
      in
      { r_flow =
          finish rc ~tree:stitched ~final:!best ~chosen_buf:top.chosen_buf
            ~polarity ~repair:top.repair ~surrogate:None;
        r_stitch =
          Some
            { st_regions;
              st_predicted_skew = predicted.Analysis.Regional.skew;
              st_rounds = !rounds; st_max_pad_ps = max_pad } }
  end

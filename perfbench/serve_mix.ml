(* serve_mix: an in-process daemon driven closed-loop by [nproc] client
   threads, each sending its next request only after the previous reply.
   The seeded plan mixes reads (a hot set served from the shared
   Evaluator.Store) with writes (novel ti:N that miss and publish). *)

module P = Serve.Protocol
module Json = Suite.Report.Json
open Measure

let name = "serve_mix"
let config = Core.Config.default

(* Reads: the two ISPD instances with the shortest flows, one TI size. *)
let hot = [| "ispd09f22"; "ispd09fnb1"; "ti:150" |]

(* Writes: ti:N with distinct N from [novel_lo] up, never a hot size. *)
let novel_lo = 100

(* The plan is made of blocks of [block] requests: half reads (each hot
   spec once), half writes, and an Eval in the last slot (one request in
   six), which reads on even blocks and writes on odd ones. *)
let block = 2 * Array.length hot

(* Plan length: four requests per second of measuring time (about the
   rate of a 2-core box), and never fewer than 100, so at least ten
   samples lie beyond p90. *)
let requests ~seconds = max 100 (int_of_float (4. *. seconds))
let stats_interval_s = 0.5
let request_timeout_s = 60.
let setup_reps = 3

type op = Run | Eval

type req = { idx : int; spec : string; is_hot : bool; op : op }

type reply = Done of Json.t | Busy | Failed of string

type outcome = { req : req; sent : float; latency : float; reply : reply }

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Suite.Rng.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* The seeded plan: same seed, same plan. The seed orders each block and
   deals the write sizes out in its own order. Which sizes are written,
   and which of them by Run or by Eval, is the same for every seed, so
   another seed gives another plan of the same shape and the same cost,
   and the mean skew and CLR over Run replies do not depend on it. *)
let plan ~seed ~seconds =
  let rng = Suite.Rng.create seed in
  let make_block b =
    let eval_hot = b mod 2 = 0 in
    let reads = Array.length hot - if eval_hot then 1 else 0 in
    let slots = Array.init (block - 1) (fun s -> s < reads) in
    shuffle rng slots;
    let is_hot = Array.append slots [| eval_hot |] in
    (* The hot Eval of an even block takes the hot specs in turn; the
       block's hot Runs get the rest in seeded order. *)
    let specs =
      if eval_hot then begin
        let turn = hot.(b / 2 mod Array.length hot) in
        let runs = Array.of_list (List.filter (( <> ) turn) (Array.to_list hot)) in
        shuffle rng runs;
        Array.append runs [| turn |]
      end
      else begin
        let specs = Array.copy hot in
        shuffle rng specs;
        specs
      end
    in
    let k = ref 0 in
    Array.mapi
      (fun s h ->
        let spec = if h then (incr k; specs.(!k - 1)) else "" in
        { idx = (b * block) + s; spec; is_hot = h;
          op = (if s = block - 1 then Eval else Run) })
      is_hot
  in
  let n = requests ~seconds in
  let skeleton =
    Array.sub (Array.concat (List.init ((n + block - 1) / block) make_block)) 0 n
  in
  let novel op =
    List.filter (fun r -> (not r.is_hot) && r.op = op) (Array.to_list skeleton)
  in
  let run_writes = novel Run and eval_writes = novel Eval in
  let sizes =
    Seq.ints novel_lo
    |> Seq.filter (fun n -> not (Array.mem (Printf.sprintf "ti:%d" n) hot))
    |> Seq.take (List.length run_writes + List.length eval_writes)
    |> Array.of_seq
  in
  let deal writes sizes =
    shuffle rng sizes;
    List.iteri
      (fun i r ->
        skeleton.(r.idx) <- { r with spec = Printf.sprintf "ti:%d" sizes.(i) })
      writes
  in
  deal run_writes (Array.sub sizes 0 (List.length run_writes));
  deal eval_writes
    (Array.sub sizes (List.length run_writes) (List.length eval_writes));
  skeleton

let request_of r =
  match r.op with
  | Run -> P.Run { spec = r.spec; timeout_s = Some request_timeout_s; request_key = None }
  | Eval -> P.Eval { spec = r.spec; timeout_s = Some request_timeout_s; request_key = None }

let send fd request =
  match Serve.Client.request fd request with
  | Ok (P.Completed { body; _ }) -> Done body
  | Ok (P.Busy _) -> Busy
  | Ok (P.Failed { code; detail }) -> Failed (code ^ ": " ^ detail)
  | Error e -> Failed e
  | exception e -> Failed (Printexc.to_string e)

let field body path =
  let rec go v = function
    | [] -> Json.to_float (Some v)
    | k :: rest -> Option.bind (Json.member k v) (fun v -> go v rest)
  in
  match go body path with Some f -> f | None -> nan

(* ------------------------------------------------------------------ *)
(* Daemon set-up                                                        *)
(* ------------------------------------------------------------------ *)

type daemon = { server : Serve.Server.t; thread : Thread.t; addr : Unix.sockaddr }

let stop d =
  Serve.Server.shutdown d.server;
  Thread.join d.thread

(* Bind, wait until it answers, one Run per hot spec. Returns the warm-up
   replies for the correctness gate. *)
let start ~socket =
  let server =
    Serve.Server.create ~config ~workers:(workers ()) (Unix.ADDR_UNIX socket)
  in
  let d =
    { server; thread = Thread.create Serve.Server.serve server;
      addr = Serve.Server.sockaddr server }
  in
  if not (Serve.Client.wait_ready d.addr) then begin
    stop d;
    failwith "serve_mix: daemon did not come up"
  end;
  let warm =
    Serve.Client.with_connection d.addr (fun fd ->
        Array.to_list
          (Array.map
             (fun spec ->
               (spec, send fd (request_of { idx = -1; spec; is_hot = true; op = Run })))
             hot))
  in
  (d, warm)

(* [setup_reps] fresh daemons; all but the last are stopped again. *)
let setup ~socket =
  let rec go i times =
    let (d, warm), dt = time (fun () -> start ~socket) in
    let times = dt :: times in
    if i + 1 < setup_reps then begin
      stop d;
      go (i + 1) times
    end
    else (d, warm, List.rev times)
  in
  go 0 []

(* ------------------------------------------------------------------ *)
(* Measured phase                                                       *)
(* ------------------------------------------------------------------ *)

type phase = { outcomes : outcome list; wall : float; stats_ms : float list }

let run_phase d plan =
  let results = Array.make (Array.length plan) None in
  let next = Atomic.make 0 in
  let client () =
    Serve.Client.with_connection d.addr (fun fd ->
        let rec loop () =
          let i = Atomic.fetch_and_add next 1 in
          if i < Array.length plan then begin
            let sent = now () in
            let reply = send fd (request_of plan.(i)) in
            results.(i) <-
              Some { req = plan.(i); sent; latency = now () -. sent; reply };
            loop ()
          end
        in
        loop ())
  in
  let finished = Atomic.make false in
  let stats_ms = ref [] in
  let prober () =
    Serve.Client.with_connection d.addr (fun fd ->
        while not (Atomic.get finished) do
          Thread.delay stats_interval_s;
          let _, dt = time (fun () -> send fd P.Stats) in
          stats_ms := (dt *. 1e3) :: !stats_ms
        done)
  in
  let probe = Thread.create prober () in
  let t0 = now () in
  let clients = List.init (nproc ()) (fun _ -> Thread.create client ()) in
  List.iter Thread.join clients;
  let wall = now () -. t0 in
  Atomic.set finished true;
  Thread.join probe;
  let outcome i = function
    | Some o -> o
    | None -> { req = plan.(i); sent = t0; latency = 0.; reply = Failed "not sent" }
  in
  { outcomes = Array.to_list (Array.mapi outcome results); wall;
    stats_ms = !stats_ms }

let completed ph =
  List.filter_map
    (fun o -> match o.reply with Done body -> Some (o, body) | _ -> None)
    ph.outcomes

let failed ph = List.length ph.outcomes - List.length (completed ph)

(* ------------------------------------------------------------------ *)
(* Correctness gate                                                     *)
(* ------------------------------------------------------------------ *)

(* Hot specs must match the batch references (ISPD names: ispd_quick;
   the TI size: this workload's own line) to the 6 significant digits the
   wire carries; every reply must be finite; replies for one (op, spec)
   must agree with each other. *)
let check refs ~warm ph =
  let ref_of spec =
    let workload = if String.starts_with ~prefix:"ti:" spec then name else "ispd_quick" in
    Reference.find refs ~workload ~instance:spec
  in
  let close a b = Float.abs (a -. b) <= 1e-5 *. Float.abs b in
  let problems = ref [] in
  let seen = Hashtbl.create 64 in
  let note fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let check_one ~op ~spec body =
    let skew = field body [ "result"; "skew_ps" ] and clr = field body [ "result"; "clr_ps" ] in
    if not (Float.is_finite skew && Float.is_finite clr) then
      note "%s %s: non-finite skew/CLR" op spec
    else begin
      (if op = "run" && Array.mem spec hot then
         let e = ref_of spec in
         if not (close skew e.Reference.skew && close clr e.Reference.clr) then
           note "run %s: skew/CLR %g/%g, reference %g/%g" spec skew clr
             e.Reference.skew e.Reference.clr);
      match Hashtbl.find_opt seen (op, spec) with
      | Some (s, c) when s <> skew || c <> clr ->
        note "%s %s: replies disagree (%g/%g vs %g/%g)" op spec skew clr s c
      | Some _ -> ()
      | None -> Hashtbl.replace seen (op, spec) (skew, clr)
    end
  in
  List.iter
    (fun (spec, reply) ->
      match reply with
      | Done body -> check_one ~op:"run" ~spec body
      | Busy -> note "warm-up run %s: Busy" spec
      | Failed e -> note "warm-up run %s: %s" spec e)
    warm;
  List.iter
    (fun (o, body) ->
      check_one ~op:(match o.req.op with Run -> "run" | Eval -> "eval")
        ~spec:o.req.spec body)
    (completed ph);
  List.rev !problems

let record_lines () =
  let spec = hot.(Array.length hot - 1) in
  let b = Suite.Runner.load_bench spec in
  let r =
    Core.Flow.run ~config ~tech:b.Suite.Format_io.tech
      ~source:b.Suite.Format_io.source ~obstacles:b.Suite.Format_io.obstacles
      b.Suite.Format_io.sinks
  in
  [ Reference.line ~workload:name ~instance:spec
      ~digest:(Ctree.Tree.digest r.Core.Flow.tree)
      ~skew:r.Core.Flow.final.Analysis.Evaluator.skew
      ~clr:r.Core.Flow.final.Analysis.Evaluator.clr ]

(* ------------------------------------------------------------------ *)
(* Metrics                                                              *)
(* ------------------------------------------------------------------ *)

let end_to_end ~setup_times ph =
  let done_ = completed ph in
  let runs = List.filter (fun (o, _) -> o.req.op = Run) done_ in
  let lat = List.map (fun (o, _) -> o.latency *. 1e3) done_ in
  let n = List.length lat in
  let avg key = mean (List.map (fun (_, b) -> field b [ "result"; key ]) runs) in
  [
    metric ~samples:setup_reps "setup_s" "s" (median setup_times);
    metric ~samples:n "wall_s" "s" ph.wall;
    metric ~samples:(List.length runs) "skew_ps" "ps" (avg "skew_ps");
    metric ~samples:(List.length runs) "clr_ps" "ps" (avg "clr_ps");
    metric "peak_rss_mb" "MB" (peak_rss_mb ());
    metric ~samples:n "throughput_rps" "1/s" (float_of_int n /. ph.wall);
    metric ~samples:n "latency_p50_ms" "ms" (quantile 0.5 lat);
    metric ~samples:n "latency_p90_ms" "ms" (quantile 0.9 lat);
  ]

(* A recorded Run reply through write_frame/read_frame on a socket pair. *)
let protocol_layer ph =
  match List.find_opt (fun (o, _) -> o.req.op = Run) (completed ph) with
  | None -> [ na "protocol.roundtrip_us" "us"; na "protocol.frame_bytes" "bytes" ]
  | Some (_, body) ->
    let frame = P.encode_response (P.Completed { op = "run"; body }) in
    let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    let reps = 200 in
    let us =
      Fun.protect
        ~finally:(fun () -> Unix.close a; Unix.close b)
        (fun () ->
          List.init reps (fun _ ->
              snd
                (time (fun () ->
                     P.write_frame a frame;
                     match P.read_frame b with
                     | Some _ -> ()
                     | None -> failwith "protocol: early EOF"))
              *. 1e6))
    in
    [ metric ~samples:reps "protocol.roundtrip_us" "us" (median us);
      metric "protocol.frame_bytes" "bytes"
        (float_of_int (4 + String.length (Json.to_compact_string frame))) ]

let per_layer ph =
  let done_ = completed ph in
  List.iter
    (fun o ->
      Spans.add
        (Printf.sprintf "serve.request %d %s" o.req.idx o.req.spec)
        ~start:o.sent
        ~stop:(o.sent +. o.latency))
    ph.outcomes;
  let compute (_, b) = field b [ "result"; "seconds" ] *. 1e3 in
  let wait ((o, _) as c) = (o.latency *. 1e3) -. compute c in
  let lat_of pred =
    List.filter_map
      (fun (o, _) -> if pred o then Some (o.latency *. 1e3) else None)
      done_
  in
  let hot_lat = lat_of (fun o -> o.req.is_hot)
  and novel_lat = lat_of (fun o -> not o.req.is_hot) in
  let runs = List.filter (fun (o, _) -> o.req.op = Run) done_ in
  let sum key =
    List.fold_left
      (fun a (_, b) -> a + int_of_float (field b [ "cache"; key ]))
      0 runs
  in
  let store_hits = sum "store_hits" and store_misses = sum "store_misses" in
  let local_hits = sum "local_hits" and local_misses = sum "local_misses" in
  let evals =
    List.fold_left
      (fun a (_, b) -> a + int_of_float (field b [ "result"; "eval_runs" ]))
      0 runs
  in
  let busy =
    List.length (List.filter (fun o -> o.reply = Busy) ph.outcomes)
  in
  let n = List.length done_ in
  let pct q f = quantile q (List.map f done_) in
  [
    metric ~samples:n "serve.compute_ms_p50" "ms" (pct 0.5 compute);
    metric ~samples:n "serve.compute_ms_p90" "ms" (pct 0.9 compute);
    metric ~samples:n "serve.wait_ms_p50" "ms" (pct 0.5 wait);
    metric ~samples:n "serve.wait_ms_p90" "ms" (pct 0.9 wait);
    metric ~samples:(List.length hot_lat) "serve.hot_latency_p50_ms" "ms"
      (median hot_lat);
    metric ~samples:(List.length novel_lat) "serve.novel_latency_p50_ms" "ms"
      (median novel_lat);
    metric ~samples:(store_hits + store_misses) "store.hit_ratio" "ratio"
      (ratio store_hits (store_hits + store_misses));
    count "store.lookups" (store_hits + store_misses);
    count "serve.busy" busy;
    metric ~samples:(List.length ph.stats_ms) "serve.stats_ms_p90" "ms"
      (quantile 0.9 ph.stats_ms);
    count "ivc.eval_runs" evals;
    count "evaluator.cache_hits" local_hits;
    count "evaluator.cache_misses" local_misses;
    metric ~samples:(local_hits + local_misses) "evaluator.hit_ratio" "ratio"
      (ratio local_hits (local_hits + local_misses));
  ]
  @ protocol_layer ph

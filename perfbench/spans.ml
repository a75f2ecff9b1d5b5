(* In-memory span log for traced runs. A span covers one call into a
   layer's public entry point; its parent is the span open around it.
   Nothing is written until [dump], after measurement ends. *)

type span = {
  id : int;
  parent : int;  (** -1 at top level *)
  name : string;
  start : float;  (** Monoclock seconds *)
  stop : float;
}

let log : span list ref = ref []
let stack : int list ref = ref []
let next = ref 0

let with_span name f =
  let id = !next in
  incr next;
  let parent = match !stack with p :: _ -> p | [] -> -1 in
  stack := id :: !stack;
  let start = Measure.now () in
  let finish () =
    stack := List.tl !stack;
    log := { id; parent; name; start; stop = Measure.now () } :: !log
  in
  Fun.protect ~finally:finish f

(* Record an interval measured elsewhere (an [on_step] gap). *)
let add name ~start ~stop =
  let id = !next in
  incr next;
  let parent = match !stack with p :: _ -> p | [] -> -1 in
  log := { id; parent; name; start; stop } :: !log

let dump path =
  Out_channel.with_open_text path (fun oc ->
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"id\": %d, \"parent\": %d, \"name\": %s, \"start\": %.9f, \
             \"stop\": %.9f}\n"
            s.id s.parent (Measure.json_string s.name) s.start s.stop)
        (List.rev !log))

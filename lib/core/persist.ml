(* Crash-safe file I/O: write to a temp file in the target directory,
   fsync, then rename over the destination. POSIX rename is atomic within
   a filesystem, so readers only ever observe the old content or the
   complete new content — never a torn write. The checksummed variants
   add a trailing FNV-1a line so a reader can also reject snapshots from
   a crashed-then-restarted writer whose rename did land but whose
   content was produced from corrupted in-memory state. *)

(* An index loop with no closure over [h], so the accumulator stays an
   unboxed local instead of allocating an Int64 per byte. *)
let fnv1a s =
  let h = ref 0xcbf29ce484222325L in
  for i = 0 to String.length s - 1 do
    h :=
      Int64.mul
        (Int64.logxor !h (Int64.of_int (Char.code (String.unsafe_get s i))))
        0x100000001b3L
  done;
  !h

(* ------------------------------------------------------------------ *)
(* Fault injection                                                     *)
(* ------------------------------------------------------------------ *)

(* Chaos drills ask "what does a dying disk do to the daemon?" without a
   dying disk: an installed injector is consulted once per atomic write
   and can make that write fail at any of the three points a real crash
   can hit — the data write itself (leaving a torn temp file), the
   fsync, or the rename. The injector runs process-wide (persistence is
   a process-wide resource) and the contract it must uphold is the
   module's own: the destination keeps its old content whenever the
   write fails, whichever point failed. *)

type fault =
  | Fail_fsync   (* fsync raises EIO: data may not be durable *)
  | Fail_rename  (* rename raises: the snapshot never lands *)
  | Torn_tmp     (* the process "dies" mid-write: half the bytes land *)

exception Injected_fault of fault

let fault_name = function
  | Fail_fsync -> "fsync"
  | Fail_rename -> "rename"
  | Torn_tmp -> "torn-tmp"

let injector : (path:string -> fault option) option Atomic.t =
  Atomic.make None

let set_fault_injector f = Atomic.set injector (Some f)
let clear_fault_injector () = Atomic.set injector None

let injected_fault ~path =
  match Atomic.get injector with None -> None | Some f -> f ~path

let rec mkdir_p dir =
  if dir <> "" && dir <> "/" && dir <> "." && not (Sys.file_exists dir)
  then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let write_atomic path content =
  let fault = injected_fault ~path in
  let dir = Filename.dirname path in
  mkdir_p dir;
  let tmp, oc =
    Filename.open_temp_file ~temp_dir:dir
      ("." ^ Filename.basename path ^ ".")
      ".tmp"
  in
  (try
     (match fault with
     | Some Torn_tmp ->
       (* A crash mid-write: only a prefix reaches the temp file, and
          nothing after it runs. The cleanup below still removes the
          torn file; what matters is that [path] never sees it. *)
       output_string oc (String.sub content 0 (String.length content / 2));
       flush oc;
       raise (Injected_fault Torn_tmp)
     | Some _ | None -> output_string oc content);
     flush oc;
     (match fault with
     | Some Fail_fsync -> raise (Injected_fault Fail_fsync)
     | _ -> Unix.fsync (Unix.descr_of_out_channel oc));
     close_out oc
   with e ->
     close_out_noerr oc;
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  match fault with
  | Some Fail_rename ->
    (try Sys.remove tmp with Sys_error _ -> ());
    raise (Injected_fault Fail_rename)
  | _ -> (
    try Sys.rename tmp path
    with e ->
      (try Sys.remove tmp with Sys_error _ -> ());
      raise e)

(* The trailer is fixed-width ("#fnv1a " + 16 hex digits + \n = 24
   bytes) so [read_checked] can strip it without parsing the payload. *)
let trailer content = Printf.sprintf "#fnv1a %016Lx\n" (fnv1a content)

let write_atomic_checked path content =
  write_atomic path (content ^ trailer content)

let read_checked path =
  match
    In_channel.with_open_bin path (fun ic -> In_channel.input_all ic)
  with
  | exception Sys_error e -> Error e
  | raw ->
    let n = String.length raw in
    if n < 24 then Error (path ^ ": too short for a checksum trailer")
    else begin
      let content = String.sub raw 0 (n - 24) in
      let tr = String.sub raw (n - 24) 24 in
      if tr = trailer content then Ok content
      else Error (path ^ ": checksum mismatch")
    end

(* Clock, order statistics, process context and the metric record every
   workload reports. *)

let now = Core.Monoclock.now

let time f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

(* Linear interpolation between order statistics (the "type 7" estimator
   of R and NumPy): q = 0.5 is the median. *)
let quantile q xs =
  match List.sort Float.compare xs with
  | [] -> nan
  | sorted ->
    let a = Array.of_list sorted in
    let pos = q *. float_of_int (Array.length a - 1) in
    let lo = truncate pos in
    let hi = min (lo + 1) (Array.length a - 1) in
    let frac = pos -. float_of_int lo in
    a.(lo) +. (frac *. (a.(hi) -. a.(lo)))

let median xs = quantile 0.5 xs

let mean xs =
  match xs with
  | [] -> nan
  | _ -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let ratio num den = if den = 0 then nan else float_of_int num /. float_of_int den

(* Peak resident set of this process (VmHWM), MB. *)
let peak_rss_mb () =
  let from_proc () =
    In_channel.with_open_text "/proc/self/status" (fun ic ->
        let rec scan () =
          match In_channel.input_line ic with
          | None -> None
          | Some line ->
            if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
              Scanf.sscanf (String.sub line 6 (String.length line - 6))
                " %d kB" (fun kb -> Some (float_of_int kb /. 1024.))
            else scan ()
        in
        scan ())
  in
  match from_proc () with
  | Some mb -> mb
  | None | (exception Sys_error _) ->
    let st = Gc.quick_stat () in
    float_of_int (st.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.

(* ------------------------------------------------------------------ *)
(* Metrics                                                              *)
(* ------------------------------------------------------------------ *)

(* [None] prints as n/a: the workload's configuration never calls the
   layer the metric describes. *)
type metric = { name : string; unit_ : string; value : float option; samples : int }

let metric ?(samples = 1) name unit_ v = { name; unit_; value = Some v; samples }
let na name unit_ = { name; unit_; value = None; samples = 0 }
let count name n = metric name "count" (float_of_int n)

let pp_metric m =
  match m.value with
  | None -> Printf.sprintf "  %-28s %18s %-6s" m.name "n/a" m.unit_
  | Some v ->
    Printf.sprintf "  %-28s %18.6g %-6s n=%d" m.name v m.unit_ m.samples

(* ------------------------------------------------------------------ *)
(* Process context                                                      *)
(* ------------------------------------------------------------------ *)

let nproc () = Domain.recommended_domain_count ()

(* Worker count for every pool the benchmark sizes itself: one per spare
   core, so the benchmark's own client threads keep a core. *)
let workers () = max 1 (nproc () - 1)

let git_commit () =
  match
    if Sys.file_exists ".git" then
      Unix.open_process_args_in "git" [| "git"; "rev-parse"; "HEAD" |]
    else raise Not_found
  with
  | exception (Not_found | Unix.Unix_error _) -> "none"
  | ic ->
    let line = In_channel.input_line ic in
    (match (Unix.close_process_in ic, line) with
    | Unix.WEXITED 0, Some l -> String.trim l
    | _ -> "none")

(* FNV-1a over every library source file, sorted by path: identifies the
   code under test where no git metadata exists. *)
let source_digest () =
  let rec files dir =
    Sys.readdir dir |> Array.to_list |> List.sort compare
    |> List.concat_map (fun f ->
           let p = Filename.concat dir f in
           if Sys.is_directory p then files p
           else if Filename.check_suffix p ".ml" || Filename.check_suffix p ".mli"
           then [ p ]
           else [])
  in
  match files "lib" with
  | exception Sys_error _ -> "none"
  | paths ->
    let text =
      String.concat "\000"
        (List.map
           (fun p -> p ^ "\000" ^ In_channel.with_open_bin p In_channel.input_all)
           paths)
    in
    Printf.sprintf "%016Lx" (Core.Persist.fnv1a text)

let context ~workload ~seed ~trace ~config ~pools =
  [
    ("workload", workload);
    ("seed", string_of_int seed);
    ("trace", string_of_bool trace);
    ("nproc", string_of_int (nproc ()));
    ("speculation_width", string_of_int (Core.Config.speculation_width config));
    ("global_pool",
     string_of_int (Analysis.Domain_pool.size (Analysis.Domain_pool.global ())));
  ]
  @ pools
  @ [
      ("ocaml", Sys.ocaml_version);
      ("git_commit", git_commit ());
      ("source_digest", source_digest ());
    ]

(* ------------------------------------------------------------------ *)
(* Output                                                               *)
(* ------------------------------------------------------------------ *)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* Full precision, never NaN: an n/a value is written as 0. *)
let json_number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let metric_json m =
  Printf.sprintf "{\"value\": %s, \"unit\": %s}"
    (json_number (Option.value m.value ~default:0.))
    (json_string m.unit_)

let metrics_json ms =
  "{"
  ^ String.concat ", "
      (List.map (fun m -> json_string m.name ^ ": " ^ metric_json m) ms)
  ^ "}"

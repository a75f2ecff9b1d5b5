(* Reference results the correctness gate compares against:
   perfbench/reference.txt, one line per (workload, instance) with the
   final tree digest and the exact final skew and CLR (hex floats).
   Regenerate with [--record] only when a change is meant to alter
   results. *)

let path = Filename.concat "perfbench" "reference.txt"

type entry = { digest : int64; skew : float; clr : float }

let load () =
  let tbl = Hashtbl.create 32 in
  In_channel.with_open_text path (fun ic ->
      let rec go () =
        match In_channel.input_line ic with
        | None -> ()
        | Some line ->
          let line = String.trim line in
          if line <> "" && line.[0] <> '#' then
            Scanf.sscanf line "%s %s %Lx %h %h" (fun w inst digest skew clr ->
                Hashtbl.replace tbl (w, inst) { digest; skew; clr });
          go ()
      in
      go ());
  tbl

let line ~workload ~instance ~digest ~skew ~clr =
  Printf.sprintf "%s %s %016Lx %h %h" workload instance digest skew clr

let find tbl ~workload ~instance =
  match Hashtbl.find_opt tbl (workload, instance) with
  | Some e -> e
  | None ->
    failwith (Printf.sprintf "no reference for %s %s in %s" workload instance path)

let fmt ?(decimals = 2) v =
  if Float.is_nan v then "-"
  else if Float.is_integer v && Float.abs v >= 1000. then
    Printf.sprintf "%.0f" v
  else Printf.sprintf "%.*f" decimals v

let table ~title ~header rows =
  let all = header :: rows in
  let ncols = List.fold_left (fun acc r -> max acc (List.length r)) 0 all in
  let width = Array.make ncols 0 in
  List.iter
    (fun row ->
      List.iteri
        (fun i cell -> width.(i) <- max width.(i) (String.length cell))
        row)
    all;
  let buf = Buffer.create 1024 in
  Buffer.add_string buf title;
  Buffer.add_char buf '\n';
  let render row =
    List.iteri
      (fun i cell ->
        Buffer.add_string buf (Printf.sprintf "%*s" (width.(i) + 2) cell))
      row;
    Buffer.add_char buf '\n'
  in
  render header;
  let total = Array.fold_left (fun acc w -> acc + w + 2) 0 width in
  Buffer.add_string buf (String.make total '-');
  Buffer.add_char buf '\n';
  List.iter render rows;
  Buffer.contents buf

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | List of t list
    | Obj of (string * t) list

  let escape s =
    let buf = Buffer.create (String.length s + 8) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\t' -> Buffer.add_string buf "\\t"
        | c when Char.code c < 32 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.contents buf

  let rec emit buf indent v =
    let pad n = String.make (2 * n) ' ' in
    match v with
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (string_of_bool b)
    | Num f ->
      if Float.is_finite f then
        Buffer.add_string buf
          (if Float.is_integer f && Float.abs f < 1e15 then
             Printf.sprintf "%.0f" f
           else Printf.sprintf "%.6g" f)
      else Buffer.add_string buf "null"
    | Str s ->
      Buffer.add_char buf '"';
      Buffer.add_string buf (escape s);
      Buffer.add_char buf '"'
    | List [] -> Buffer.add_string buf "[]"
    | List items ->
      Buffer.add_string buf "[\n";
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_string buf ",\n";
          Buffer.add_string buf (pad (indent + 1));
          emit buf (indent + 1) item)
        items;
      Buffer.add_char buf '\n';
      Buffer.add_string buf (pad indent);
      Buffer.add_char buf ']'
    | Obj [] -> Buffer.add_string buf "{}"
    | Obj fields ->
      Buffer.add_string buf "{\n";
      List.iteri
        (fun i (k, item) ->
          if i > 0 then Buffer.add_string buf ",\n";
          Buffer.add_string buf (pad (indent + 1));
          Buffer.add_char buf '"';
          Buffer.add_string buf (escape k);
          Buffer.add_string buf "\": ";
          emit buf (indent + 1) item)
        fields;
      Buffer.add_char buf '\n';
      Buffer.add_string buf (pad indent);
      Buffer.add_char buf '}'

  let to_string v =
    let buf = Buffer.create 1024 in
    emit buf 0 v;
    Buffer.add_char buf '\n';
    Buffer.contents buf

  (* Single-line form, no trailing newline: one JSONL telemetry record per
     call. *)
  let rec emit_compact buf v =
    match v with
    | Null | Bool _ | Num _ | Str _ -> emit buf 0 v
    | List items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_char buf ',';
          emit_compact buf item)
        items;
      Buffer.add_char buf ']'
    | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, item) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_char buf '"';
          Buffer.add_string buf (escape k);
          Buffer.add_string buf "\":";
          emit_compact buf item)
        fields;
      Buffer.add_char buf '}'

  let to_compact_string v =
    let buf = Buffer.create 256 in
    emit_compact buf v;
    Buffer.contents buf

  (* Recursive-descent parser for everything this module emits (and plain
     JSON generally). Kept dependency-free on purpose: the golden-baseline
     diff has to read back committed suite.json files. *)
  exception Parse of string

  let max_depth = 512

  let of_string text =
    let n = String.length text in
    let pos = ref 0 in
    let fail msg = raise (Parse (Printf.sprintf "%s at offset %d" msg !pos)) in
    let peek () = if !pos < n then Some text.[!pos] else None in
    let advance () = incr pos in
    let skip_ws () =
      while
        !pos < n
        && (match text.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
      do
        advance ()
      done
    in
    let expect c =
      if !pos < n && text.[!pos] = c then advance ()
      else fail (Printf.sprintf "expected '%c'" c)
    in
    let word w v =
      let l = String.length w in
      if !pos + l <= n && String.sub text !pos l = w then begin
        pos := !pos + l;
        v
      end
      else fail (Printf.sprintf "expected %s" w)
    in
    let add_utf8 buf cp =
      if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
      else if cp < 0x800 then begin
        Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
        Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
      end
      else begin
        Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
        Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
        Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
      end
    in
    let parse_string () =
      expect '"';
      let buf = Buffer.create 16 in
      let rec go () =
        if !pos >= n then fail "unterminated string";
        let c = text.[!pos] in
        advance ();
        if c = '"' then Buffer.contents buf
        else if c = '\\' then begin
          (if !pos >= n then fail "unterminated escape";
           let e = text.[!pos] in
           advance ();
           match e with
           | '"' -> Buffer.add_char buf '"'
           | '\\' -> Buffer.add_char buf '\\'
           | '/' -> Buffer.add_char buf '/'
           | 'n' -> Buffer.add_char buf '\n'
           | 't' -> Buffer.add_char buf '\t'
           | 'r' -> Buffer.add_char buf '\r'
           | 'b' -> Buffer.add_char buf '\b'
           | 'f' -> Buffer.add_char buf '\012'
           | 'u' ->
             if !pos + 4 > n then fail "truncated \\u escape";
             let hex = String.sub text !pos 4 in
             pos := !pos + 4;
             (match int_of_string_opt ("0x" ^ hex) with
             | Some cp -> add_utf8 buf cp
             | None -> fail "bad \\u escape")
           | _ -> fail "unknown escape");
          go ()
        end
        else begin
          Buffer.add_char buf c;
          go ()
        end
      in
      go ()
    in
    let parse_number () =
      let start = !pos in
      while
        !pos < n
        &&
        match text.[!pos] with
        | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
        | _ -> false
      do
        advance ()
      done;
      match float_of_string_opt (String.sub text start (!pos - start)) with
      | Some f -> f
      | None -> fail "bad number"
    in
    (* [depth] containers enclose the value; the cap bounds the recursion
       an adversarial nest of brackets can demand. *)
    let open_container depth =
      if depth >= max_depth then
        fail (Printf.sprintf "nesting deeper than %d" max_depth);
      advance ()
    in
    let rec parse_value depth =
      skip_ws ();
      match peek () with
      | None -> fail "unexpected end of input"
      | Some '{' ->
        open_container depth;
        skip_ws ();
        if peek () = Some '}' then begin advance (); Obj [] end
        else begin
          let rec fields acc =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value (depth + 1) in
            skip_ws ();
            match peek () with
            | Some ',' -> advance (); fields ((k, v) :: acc)
            | Some '}' -> advance (); Obj (List.rev ((k, v) :: acc))
            | _ -> fail "expected ',' or '}'"
          in
          fields []
        end
      | Some '[' ->
        open_container depth;
        skip_ws ();
        if peek () = Some ']' then begin advance (); List [] end
        else begin
          let rec items acc =
            let v = parse_value (depth + 1) in
            skip_ws ();
            match peek () with
            | Some ',' -> advance (); items (v :: acc)
            | Some ']' -> advance (); List (List.rev (v :: acc))
            | _ -> fail "expected ',' or ']'"
          in
          items []
        end
      | Some '"' -> Str (parse_string ())
      | Some 't' -> word "true" (Bool true)
      | Some 'f' -> word "false" (Bool false)
      | Some 'n' -> word "null" Null
      | Some ('-' | '0' .. '9') -> Num (parse_number ())
      | Some c -> fail (Printf.sprintf "unexpected '%c'" c)
    in
    match parse_value 0 with
    | v ->
      skip_ws ();
      if !pos <> n then Error (Printf.sprintf "trailing garbage at offset %d" !pos)
      else Ok v
    | exception Parse msg -> Error msg

  let member key = function
    | Obj fields -> List.assoc_opt key fields
    | _ -> None

  let to_float = function
    | Some (Num f) -> Some f
    | _ -> None

  let to_str = function
    | Some (Str s) -> Some s
    | _ -> None

  let to_list = function
    | Some (List l) -> l
    | _ -> []
end

(* -------- Published numbers (DATE'10 paper) -------- *)

(* Table III: (CLR, skew) per benchmark f11 f12 f21 f22 f31 f32 fnb1. *)
let paper_table3 =
  [
    ("INITIAL",
     [ (56.18, 30.58); (75.81, 48.96); (89.29, 59.17); (52.01, 31.55);
       (151.8, 116.5); (121.6, 88.19); (31.86, 21.15) ]);
    ("TBSZ",
     [ (55.61, 46.78); (80.03, 66.24); (89.49, 76.31); (43.16, 33.65);
       (140.3, 129.2); (110.7, 98.27); (31.54, 21.13) ]);
    ("TWSZ",
     [ (23.38, 15.07); (19.70, 8.127); (26.00, 12.25); (16.35, 6.933);
       (43.08, 32.21); (27.23, 14.84); (30.75, 20.44) ]);
    ("TWSN",
     [ (13.75, 2.929); (16.21, 3.384); (17.60, 2.826); (12.58, 1.99);
       (12.81, 3.91); (17.92, 4.594); (13.94, 3.149) ]);
    ("BWSN",
     [ (13.36, 2.867); (15.27, 2.611); (17.40, 2.738); (12.36, 2.227);
       (12.81, 3.91); (17.92, 4.594); (13.40, 3.5) ]);
  ]

let paper_table4_teams = [ "Contango"; "NTU"; "NCTU"; "U.Michigan" ]

(* Table IV rows: per benchmark, per team: (CLR ps, cap %, CPU s); None =
   "fail". *)
let paper_table4 =
  [
    ("ispd09f11",
     [ Some (13.36, 99.61, 6488.); Some (26.71, 85.53, 14764.);
       Some (22.31, 89.90, 23358.); Some (32.29, 73.86, 3892.) ]);
    ("ispd09f12",
     [ Some (15.27, 99.99, 6564.); Some (25.73, 84.72, 13934.);
       Some (22.18, 87.86, 14992.); Some (32.17, 73.45, 3944.) ]);
    ("ispd09f21",
     [ Some (17.40, 96.74, 6673.); Some (30.54, 80.79, 14978.);
       Some (19.61, 86.65, 26420.); Some (34.31, 74.30, 4587.) ]);
    ("ispd09f22",
     [ Some (12.36, 97.43, 3618.); Some (24.51, 81.82, 7189.);
       Some (16.38, 85.01, 9432.); Some (30.45, 70.01, 2005.) ]);
    ("ispd09f31",
     [ Some (12.81, 98.29, 21379.); Some (45.07, 73.49, 40088.);
       Some (212.0, 92.38, 1.29); Some (51.34, 81.53, 17333.) ]);
    ("ispd09f32",
     [ Some (17.92, 99.24, 12895.); Some (36.90, 80.14, 3566.);
       None; Some (40.32, 77.39, 10599.) ]);
    ("ispd09fnb1",
     [ Some (13.40, 78.38, 778.); None; None; Some (19.84, 63.10, 477.) ]);
  ]

(* Table V: sinks, CLR, skew, max 1.2V latency, cap pF, minutes, SPICE
   runs. *)
let paper_table5 =
  [
    (200, 13.47, 2.124, 506.8, 52.21, 2.2, 21);
    (500, 14.84, 2.174, 528.0, 99.53, 6.28, 20);
    (1_000, 17.53, 3.138, 543.1, 162.3, 12.5, 20);
    (2_000, 16.56, 3.136, 543.9, 276.1, 19.3, 15);
    (5_000, 23.20, 3.853, 538.5, 591.1, 99.6, 22);
    (10_000, 25.54, 5.562, 538.0, 1130., 352.8, 23);
    (20_000, 32.47, 10.46, 546.8, 2243., 1867., 35);
    (50_000, 31.52, 8.774, 545.1, 5243., 16027., 45);
  ]

(* Table II: inverted sinks after insertion vs. added inverters. *)
let paper_table2 =
  [
    ("ispd09f11", (77, 9)); ("ispd09f12", (71, 7)); ("ispd09f21", (46, 8));
    ("ispd09f22", (57, 9)); ("ispd09f31", (140, 16)); ("ispd09f32", (47, 13));
    ("ispd09fnb1", (153, 2));
  ]

(* Table I. *)
let paper_table1 =
  [
    ("1X Large", 35., 80., 61.2);
    ("1X Small", 4.2, 6.1, 440.);
    ("2X Small", 8.4, 12.2, 220.);
    ("4X Small", 16.8, 24.4, 110.);
    ("8X Small", 33.6, 48.8, 55.);
  ]

(* Malformed-input generators for the input-boundary tests (JSON, the
   serve protocol, chaos specs, suite instance specs): seeded random
   strings, one-to-three-byte mutations of valid inputs, and a
   million-deep bracket nest. A boundary must return a value or a
   structured error on every one of them, never raise. *)

(* Mostly the characters the parsers branch on, sometimes any byte. *)
let alphabet = "{}[],:\"\\0123456789-+.eEtrufalsn =@_ abcgikpxyz\n\t"

let byte rng =
  if Suite.Rng.int rng 4 = 0 then Char.chr (Suite.Rng.int rng 256)
  else alphabet.[Suite.Rng.int rng (String.length alphabet)]

let random_string rng = String.init (Suite.Rng.int rng 48) (fun _ -> byte rng)

(* One to three edits, each overwriting, deleting or inserting a byte. *)
let mutate rng s =
  let s = ref s in
  for _ = 1 to 1 + Suite.Rng.int rng 3 do
    let n = String.length !s in
    let i = Suite.Rng.int rng (n + 1) in
    let pre = String.sub !s 0 i and c = String.make 1 (byte rng) in
    s :=
      match Suite.Rng.int rng 3 with
      | 0 when i < n -> pre ^ c ^ String.sub !s (i + 1) (n - i - 1)
      | 1 when i < n -> pre ^ String.sub !s (i + 1) (n - i - 1)
      | _ -> pre ^ c ^ String.sub !s i (n - i)
  done;
  !s

let deep_nest = String.make 1_000_000 '['

(* [count] random strings, [count] mutations of each valid input, and
   the deep nest — the same list for the same seed. *)
let inputs ~seed ~count valid =
  let rng = Suite.Rng.create seed in
  List.init count (fun _ -> random_string rng)
  @ List.concat_map (fun v -> List.init count (fun _ -> mutate rng v)) valid
  @ [ deep_nest ]

let never_raises what f inputs =
  List.iter
    (fun s ->
      match ignore (f s) with
      | () -> ()
      | exception e ->
        Alcotest.failf "%s raised %s on %S" what (Printexc.to_string e)
          (String.sub s 0 (min 80 (String.length s))))
    inputs

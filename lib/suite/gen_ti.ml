open Geometry

let family = [ 200; 500; 1_000; 2_000; 5_000; 10_000; 20_000; 50_000 ]

let die_w = 4_200_000 (* nm *)
let die_h = 3_000_000

(* 450 placement rows × 300 columns = 135 000 candidate sites. *)
let rows = 450
let cols = 300
let candidate_count = rows * cols

(* Deterministic candidate site: jittered grid position with a smooth
   density warp (flops bunch towards register banks). Draws exactly
   [draws_per_site] values from [rng] (two Box–Muller normals, no
   rejection), which is what lets [generate] jump straight to a site. *)
let draws_per_site = 4

let site rng idx =
  let r = idx / cols and c = idx mod cols in
  let fx = (float_of_int c +. 0.5) /. float_of_int cols in
  let fy = (float_of_int r +. 0.5) /. float_of_int rows in
  (* Warp coordinates towards two "register bank" attractors. *)
  let warp f centre strength = f +. (strength *. sin ((f -. centre) *. Float.pi)) in
  let fx = warp fx 0.3 0.08 and fy = warp fy 0.6 0.06 in
  let jitter scale = int_of_float (Rng.normal rng *. scale) in
  let clamp v hi = min (max v 0) hi in
  Point.make
    (clamp (int_of_float (fx *. float_of_int die_w) + jitter 2_000.) die_w)
    (clamp (int_of_float (fy *. float_of_int die_h) + jitter 2_000.) die_h)

(* The site layout is one stream at seed [0x7151] walked in index order,
   so site [idx] reads draws [4·idx, 4·idx+4) of it whatever [n] is. Only
   the chosen sites are laid out, each from a stream jumped to its first
   draw, instead of laying out all 135 000 sites per call. *)
let generate n =
  if n < 1 || n > candidate_count then
    invalid_arg (Printf.sprintf "Gen_ti.generate: n=%d out of range" n);
  let rng = Rng.create (0x71 + n) in
  (* Sample n distinct site indices (Floyd's algorithm), marked in a
     byte per site and read back in ascending order, skipping eight
     unmarked sites per word. *)
  let chosen = Bytes.make ((candidate_count + 7) land lnot 7) '\000' in
  for j = candidate_count - n to candidate_count - 1 do
    let t = Rng.int rng (j + 1) in
    Bytes.set chosen (if Bytes.get chosen t = '\000' then t else j) '\001'
  done;
  let idxs = Array.make n 0 and k = ref 0 and w = ref 0 in
  while !k < n do
    if Bytes.get_int64_ne chosen !w <> 0L then
      for i = !w to !w + 7 do
        if Bytes.get chosen i <> '\000' then begin
          idxs.(!k) <- i;
          incr k
        end
      done;
    w := !w + 8
  done;
  (* Caps keep drawing from the Floyd stream in ascending index order. *)
  let sink idx =
    let site_rng = Rng.create 0x7151 in
    Rng.jump site_rng (draws_per_site * idx);
    let pos = site site_rng idx in
    { Dme.Zst.label = Printf.sprintf "ff%d" idx; pos;
      cap = 2. +. (Rng.float rng *. 4.); parity = 0 }
  in
  {
    Format_io.name = Printf.sprintf "ti%d" n;
    chip = Rect.make ~lx:0 ~ly:0 ~hx:die_w ~hy:die_h;
    source = Point.make 0 (die_h / 2);
    sinks = Array.map sink idxs;
    obstacles = [];
    tech = Tech.default45 ();
  }

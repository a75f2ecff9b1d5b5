open Geometry

type spec = {
  name : string;
  seed : int;
  chip_mm : float * float;
  n_sinks : int;
  n_clusters : int;
  n_obstacles : int;
  cap_limit_pf : float;
}

(* Sink counts match the contest's published benchmark sizes; capacitance
   budgets are sized so a reasonable flow lands in the 90–100 % band the
   contest scoring encouraged (Table IV reports cap as % of limit). *)
let specs =
  [
    { name = "ispd09f11"; seed = 0xf11; chip_mm = (17., 17.); n_sinks = 121;
      n_clusters = 8; n_obstacles = 0; cap_limit_pf = 88. };
    { name = "ispd09f12"; seed = 0xf12; chip_mm = (17., 17.); n_sinks = 117;
      n_clusters = 8; n_obstacles = 0; cap_limit_pf = 85. };
    { name = "ispd09f21"; seed = 0xf21; chip_mm = (14., 14.); n_sinks = 117;
      n_clusters = 7; n_obstacles = 0; cap_limit_pf = 60. };
    { name = "ispd09f22"; seed = 0xf22; chip_mm = (11., 11.); n_sinks = 91;
      n_clusters = 6; n_obstacles = 0; cap_limit_pf = 52. };
    { name = "ispd09f31"; seed = 0xf31; chip_mm = (16., 16.); n_sinks = 273;
      n_clusters = 12; n_obstacles = 6; cap_limit_pf = 230. };
    { name = "ispd09f32"; seed = 0xf32; chip_mm = (14., 14.); n_sinks = 190;
      n_clusters = 10; n_obstacles = 4; cap_limit_pf = 115. };
    { name = "ispd09fnb1"; seed = 0xfb1; chip_mm = (10., 10.); n_sinks = 330;
      n_clusters = 16; n_obstacles = 12; cap_limit_pf = 155. };
  ]

let names = List.map (fun s -> s.name) specs

let gen_obstacles rng ~w ~h ~count =
  (* Blocks of 8–22 % of the die span; every third block gets an abutting
     companion, exercising compound-obstacle handling. Keep the left edge
     clear — the clock source sits there. *)
  let rects = ref [] in
  for i = 0 to count - 1 do
    let bw = (8 + Rng.int rng 15) * w / 100 in
    let bh = (8 + Rng.int rng 15) * h / 100 in
    let lx = (w / 5) + Rng.int rng (max 1 ((4 * w / 5) - bw)) in
    let ly = Rng.int rng (max 1 (h - bh)) in
    let r = Rect.make ~lx ~ly ~hx:(lx + bw) ~hy:(ly + bh) in
    rects := r :: !rects;
    if i mod 3 = 2 then begin
      (* abutting companion on the right edge of [r] *)
      let cw = bw / 2 and ch = max 1 (bh * 2 / 3) in
      let cy = ly + Rng.int rng (max 1 (bh - ch)) in
      if lx + bw + cw < w then
        rects :=
          Rect.make ~lx:(lx + bw) ~ly:cy ~hx:(lx + bw + cw) ~hy:(cy + ch)
          :: !rects
    end
  done;
  !rects

let inside_any rects p = List.exists (fun r -> Rect.contains_open r p) rects

let generate name =
  let spec =
    match List.find_opt (fun s -> s.name = name) specs with
    | Some s -> s
    | None -> invalid_arg ("Gen_ispd.generate: unknown benchmark " ^ name)
  in
  let rng = Rng.create spec.seed in
  let w = Tech.Units.nm_of_um (fst spec.chip_mm *. 1000.) in
  let h = Tech.Units.nm_of_um (snd spec.chip_mm *. 1000.) in
  let chip = Rect.make ~lx:0 ~ly:0 ~hx:w ~hy:h in
  let obstacles = gen_obstacles rng ~w ~h ~count:spec.n_obstacles in
  (* Cluster centres, then sinks Gaussian around them (σ = span/18), with
     a quarter of the sinks scattered uniformly. *)
  let centers =
    Array.init spec.n_clusters (fun _ ->
        Point.make
          ((w / 10) + Rng.int rng (8 * w / 10))
          ((h / 10) + Rng.int rng (8 * h / 10)))
  in
  let sigma = float_of_int (max w h) /. 18. in
  let clamp v lo hi = min (max v lo) hi in
  let rec sample_sink i tries =
    if tries > 200 then invalid_arg "Gen_ispd: cannot place sink off-obstacle";
    let p =
      if Rng.int rng 4 = 0 then
        Point.make (Rng.int rng w) (Rng.int rng h)
      else begin
        let c = centers.(Rng.int rng spec.n_clusters) in
        Point.make
          (clamp (c.Point.x + int_of_float (Rng.normal rng *. sigma)) 0 w)
          (clamp (c.Point.y + int_of_float (Rng.normal rng *. sigma)) 0 h)
      end
    in
    if inside_any obstacles p then sample_sink i (tries + 1)
    else
      { Dme.Zst.label = "s" ^ string_of_int i; pos = p;
        cap = 5. +. (Rng.float rng *. 30.); parity = 0 }
  in
  let sinks = Array.init spec.n_sinks (fun i -> sample_sink i 0) in
  let tech = Tech.default45 ~cap_limit:(spec.cap_limit_pf *. 1000.) () in
  {
    Format_io.name = spec.name;
    chip;
    source = Point.make 0 (h / 2);
    sinks;
    obstacles;
    tech;
  }

let all () = List.map (fun s -> generate s.name) specs

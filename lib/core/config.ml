type t = {
  engine : Analysis.Evaluator.engine;
  flat : bool;
  seg_len : int;
  transient_step : float;
  transient_mode : Analysis.Transient.mode;
  gamma : float;
  vg_step : int;
  vg_buckets : int option;
  composite_counts : int list;
  polarity_buf_count : int;
  snake_unit : int;
  max_snake_per_round : int;
  slew_margin : float;
  damping : float;
  max_rounds : int;
  second_pass_skew_ps : float;
  deadline : float option;
  branch_levels : int;
  multicorner_slacks : bool;
  stage_balancing : bool;
  elmore_prebalance : bool;
  speculation : int;
  probe_count : int;
  size_probe_min_len : int;
  snake_probe_min_len : int;
  max_stage_retries : int;
  regions : int;
  stitch_skew_ps : float;
  inject_numerical_failures : int;
  chaos : string option;
  debug : bool;
  surrogate : bool;
  rank_top : int;
  store : Analysis.Evaluator.Store.handle option;
  spec : Speculate.t option;
  surrogate_state : Analysis.Surrogate.t option;
}

(* Historical escape hatch, honoured once at startup so existing
   workflows keep working; per-run control goes through the [debug]
   field (the suite runner flips it per instance without re-exec). *)
let debug_env = Sys.getenv_opt "CONTANGO_DEBUG" <> None

let default =
  {
    engine = Analysis.Evaluator.Spice;
    flat = false;
    seg_len = Analysis.Rcnet.default_seg_len;
    transient_step = Analysis.Transient.default_step;
    transient_mode = Analysis.Transient.default_mode;
    gamma = 0.10;
    vg_step = 100_000;
    vg_buckets = Some 48;
    composite_counts = [ 64; 48; 32; 24; 16; 12; 8; 6; 4; 3; 2; 1 ];
    polarity_buf_count = 0;
    snake_unit = 2_000;
    max_snake_per_round = 800_000;
    slew_margin = 0.35;
    damping = 0.85;
    max_rounds = 150;
    second_pass_skew_ps = 5.;
    deadline = None;
    branch_levels = 4;
    multicorner_slacks = true;
    stage_balancing = true;
    elmore_prebalance = true;
    speculation = 0;
    probe_count = 5;
    size_probe_min_len = 20_000;
    snake_probe_min_len = 5_000;
    max_stage_retries = 2;
    regions = 1;
    stitch_skew_ps = 1.0;
    inject_numerical_failures = 0;
    chaos = None;
    debug = debug_env;
    surrogate = false;
    rank_top = 0;
    store = None;
    spec = None;
    surrogate_state = None;
  }

let scalability =
  {
    default with
    engine = Analysis.Evaluator.Arnoldi;
    seg_len = 60_000;
    vg_step = 150_000;
    vg_buckets = Some 32;
    max_rounds = 200;
    surrogate = true;
  }

let speculation_width t =
  if t.speculation > 0 then t.speculation
  else if t.speculation = 0 then
    max 1 (min 8 (Domain.recommended_domain_count () - 1))
  else invalid_arg "Config.speculation_width: negative speculation"

open Bgl_torus

type t = {
  dims : Dims.t;
  wrap : bool;
  backfill : bool;
  backfill_depth : int;
  candidate_cap : int option;
  migration : bool;
  migration_overhead : float;
  repair_time : float;
  checkpoint : Checkpoint.spec option;
  slowdown_tau : float;
  drop_oversize : bool;
}

let default =
  {
    dims = Dims.bgl;
    wrap = true;
    backfill = true;
    backfill_depth = 16;
    candidate_cap = Some 24;
    migration = false;
    migration_overhead = 0.;
    repair_time = 0.;
    checkpoint = None;
    slowdown_tau = 10.;
    drop_oversize = true;
  }

let validate t =
  if t.backfill_depth < 0 then invalid_arg "Config: backfill_depth must be non-negative";
  (match t.candidate_cap with
  | Some c when c <= 0 -> invalid_arg "Config: candidate_cap must be positive"
  | Some _ | None -> ());
  if not (Float.is_finite t.repair_time && t.repair_time >= 0.) then
    invalid_arg "Config: repair_time must be finite and non-negative";
  if not (Float.is_finite t.migration_overhead && t.migration_overhead >= 0.) then
    invalid_arg "Config: migration_overhead must be finite and non-negative";
  if not (Float.is_finite t.slowdown_tau && t.slowdown_tau > 0.) then
    invalid_arg "Config: slowdown_tau must be finite and positive";
  Option.iter Checkpoint.validate t.checkpoint

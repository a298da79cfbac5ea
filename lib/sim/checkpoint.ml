type spec =
  | Periodic of { interval : float; overhead : float }
  | Adaptive of { risky_interval : float; safe_interval : float; overhead : float }

let positive v = Float.is_finite v && v > 0.

let check_overhead o =
  if not (Float.is_finite o && o >= 0.) then
    invalid_arg "Checkpoint: overhead must be finite and non-negative"

let validate = function
  | Periodic { interval; overhead } ->
      if not (positive interval) then invalid_arg "Checkpoint: interval must be finite and positive";
      check_overhead overhead
  | Adaptive { risky_interval; safe_interval; overhead } ->
      if not (positive risky_interval && positive safe_interval) then
        invalid_arg "Checkpoint: intervals must be finite and positive";
      check_overhead overhead

let interval_for spec ~risky =
  match spec with
  | Periodic { interval; _ } -> interval
  | Adaptive { risky_interval; safe_interval; _ } -> if risky then risky_interval else safe_interval

let overhead = function
  | Periodic { overhead; _ } -> overhead
  | Adaptive { overhead; _ } -> overhead

let checkpoints_for_work ~interval ~work =
  if work <= 0. then 0
  else
    (* A checkpoint after every full interval of work, but none
       coinciding with job completion. *)
    let n = int_of_float (ceil (work /. interval)) - 1 in
    max 0 n

let wall_time ~interval ~overhead ~work =
  work +. (float_of_int (checkpoints_for_work ~interval ~work) *. overhead)

let checkpoints_completed ~interval ~overhead ~work ~elapsed =
  if elapsed <= 0. then 0
  else
    (* Completing checkpoint k costs k * interval of work plus k
       overheads, so k = floor (elapsed / (interval + overhead)). *)
    let k = int_of_float (elapsed /. (interval +. overhead)) in
    min k (checkpoints_for_work ~interval ~work)

let persisted_at ~interval ~overhead ~work ~elapsed =
  float_of_int (checkpoints_completed ~interval ~overhead ~work ~elapsed) *. interval

let young_interval ~mtbf ~overhead =
  if mtbf <= 0. || overhead <= 0. then
    invalid_arg "Checkpoint.young_interval: mtbf and overhead must be positive";
  sqrt (2. *. overhead *. mtbf)

let mtbf_of_failures ~events ~span ~nodes_per_job ~volume =
  if events <= 0 || span <= 0. || nodes_per_job <= 0. || volume <= 0 then
    invalid_arg "Checkpoint.mtbf_of_failures: arguments must be positive";
  span *. float_of_int volume /. (float_of_int events *. nodes_per_job)

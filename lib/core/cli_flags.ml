type format = Human | Jsonl

let format_conv =
  let parse = function
    | "human" -> Ok Human
    | "jsonl" | "json" -> Ok Jsonl
    | s -> Error (`Msg (Printf.sprintf "unknown format %S (human, jsonl)" s))
  in
  let print ppf f = Format.pp_print_string ppf (match f with Human -> "human" | Jsonl -> "jsonl") in
  Cmdliner.Arg.conv (parse, print)

let checked_conv base check =
  let parse s =
    match Cmdliner.Arg.conv_parser base s with
    | Ok v -> Result.map_error (fun m -> `Msg m) (check v)
    | Error _ as e -> e
  in
  Cmdliner.Arg.conv (parse, Cmdliner.Arg.conv_printer base)

let n_jobs_conv = checked_conv Cmdliner.Arg.int Scenario.check_n_jobs
let load_conv = checked_conv Cmdliner.Arg.float Scenario.check_load
let failures_conv = checked_conv Cmdliner.Arg.int Scenario.check_failures

let format =
  Cmdliner.Arg.(
    value
    & opt format_conv Human
    & info [ "format" ] ~docv:"FORMAT"
        ~doc:"Report format: human-readable lines, or jsonl (one JSON object per line, for \
              tooling).")

let quiet =
  Cmdliner.Arg.(
    value
    & flag
    & info [ "quiet"; "q" ]
        ~doc:"Suppress informational notes (skipped/malformed trace lines, scan summaries), for \
              script use. Errors still print.")

let dims =
  Cmdliner.Arg.(
    value
    & opt (some string) None
    & info [ "dims" ] ~docv:"XxYxZ"
        ~doc:"Machine size as three torus dimensions, e.g. 4x4x8 (the paper's supernode view, \
              the default) or 64x32x32 (the full BG/L node torus). Comma separators also \
              accepted.")

let differential =
  Cmdliner.Arg.(
    value
    & opt ~vopt:(Some 1) (some int) None
    & info [ "differential-check" ] ~docv:"N"
        ~doc:"Cross-check accelerated partition-finder queries against the reference finder \
              in every run (on every domain of a sweep); abort with a divergence report on \
              any disagreement. Bare flag checks every query (orders of magnitude slower — \
              debug/CI at small sizes); with a value, only every Nth query is checked, the \
              affordable mode at full machine scale.")

let set_differential = function
  | None -> Ok (Bgl_partition.Finder.set_differential false)
  | Some n when n >= 1 -> Ok (Bgl_partition.Finder.set_differential ~sample:n true)
  | Some n -> Bgl_resilience.Error.usagef "--differential-check %d: sample must be >= 1" n

let audit =
  Cmdliner.Arg.(
    value
    & flag
    & info [ "audit" ]
        ~doc:"After the run, re-read the --trace-out file and machine-check every run section \
              (bgl-audit's checkers); report violations to stderr and exit 1 on any.")

let check_audit ~audit ~trace_out =
  if audit && trace_out = None then
    Bgl_resilience.Error.usagef "--audit needs --trace-out (it re-reads the trace file)"
  else Ok ()

let audit_trace ~audit ~trace_out =
  match (audit, trace_out) with
  | true, Some path ->
      Result.map
        (fun cert ->
          Format.eprintf "%a@?" Bgl_audit.Driver.pp cert;
          if Bgl_audit.Driver.pass cert then 0 else 1)
        (Bgl_audit.Driver.audit_files [ path ])
  | _ -> Ok 0

let quiet_state = Atomic.make false
let set_quiet b = Atomic.set quiet_state b
let quiet_enabled () = Atomic.get quiet_state

let notef fmt =
  if Atomic.get quiet_state then Format.ifprintf Format.err_formatter fmt
  else Format.eprintf fmt

let usage_failf fmt = Bgl_resilience.Error.raise_usagef fmt

let parse_dims ~default = function
  | None -> default
  | Some s -> (
      match Bgl_torus.Dims.of_string s with
      | Ok d -> d
      | Error msg -> usage_failf "--dims %s" msg)

let open_out_or_fail path =
  try open_out path
  with Sys_error detail -> raise (Bgl_resilience.Error.Cli (Io { path; detail }))

let write_registry ~path reg =
  let oc = open_out_or_fail path in
  output_string oc
    (if Filename.check_suffix path ".csv" then Bgl_obs.Registry.to_csv reg
     else Bgl_obs.Registry.to_prometheus reg);
  close_out oc

let arm_failpoints specs =
  List.fold_left
    (fun acc spec ->
      Result.bind acc (fun () ->
          match Bgl_resilience.Failpoint.of_string spec with
          | Ok s -> Ok (Bgl_resilience.Failpoint.arm s)
          | Error msg -> Bgl_resilience.Error.usagef "bad --fail %s: %s" spec msg))
    (Ok ()) specs

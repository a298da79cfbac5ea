open Bgl_core
module Jsonl = Bgl_obs.Jsonl

type sim = {
  scenario : Scenario.t;
  log : Bgl_trace.Job_log.t option;
  failures : Bgl_trace.Failure_log.t option;
  swf_digest : string option;
  flog_digest : string option;
}

type sweep = { figure : string; scale : Figures.scale }

type work = Sim of sim | Sweep of sweep

type request =
  | Ping
  | Health
  | Metrics
  | Work of { work : work; fuel : int option; deadline : float option }

(* --- parsing ---------------------------------------------------- *)

let ( let* ) = Result.bind

let str_field name v = Option.bind (Jsonl.member name v) Jsonl.to_string_opt
let num_field name v = Option.bind (Jsonl.member name v) Jsonl.to_float

let int_field name v =
  match Jsonl.member name v with
  | None -> Ok None
  | Some x -> (
      match Jsonl.to_int x with
      | Some n -> Ok (Some n)
      | None -> Error (Printf.sprintf "field %S must be an integer" name))

let pos_int_field name v =
  let* n = int_field name v in
  match n with
  | Some n when n < 1 -> Error (Printf.sprintf "field %S must be >= 1" name)
  | n -> Ok n

let budget_fields v =
  let* fuel = pos_int_field "fuel" v in
  let* deadline =
    match num_field "deadline" v with
    | Some d when d <= 0. -> Error "field \"deadline\" must be > 0"
    | d -> Ok d
  in
  Ok (fuel, deadline)

let profile_field v =
  match str_field "profile" v with
  | None -> Ok Bgl_workload.Profile.sdsc
  | Some name -> (
      match Bgl_workload.Profile.by_name name with
      | Some p -> Ok p
      | None -> Error (Printf.sprintf "unknown profile %S (nasa|sdsc|llnl)" name))

let dims_field v =
  match str_field "dims" v with
  | None -> Ok None
  | Some s ->
      let* d = Bgl_torus.Dims.of_string s in
      Ok (Some d)

let parse_sim v =
  let* profile = profile_field v in
  let* algo =
    match str_field "algo" v with
    | None -> Ok Scenario.Fault_oblivious
    | Some s -> Scenario.algo_of_string s
  in
  let* n_jobs = pos_int_field "jobs" v in
  let* seed = int_field "seed" v in
  let* failures_paper =
    match int_field "failures" v with
    | Ok (Some n) -> Result.map Option.some (Scenario.check_failures n)
    | r -> r
  in
  let* load =
    match num_field "load" v with
    | None -> Ok None
    | Some c -> Result.map Option.some (Scenario.check_load c)
  in
  let* dims = dims_field v in
  let scenario =
    Scenario.make ?n_jobs ?seed ?failures_paper ?load ?dims ~profile algo
  in
  let* log, swf_digest =
    match str_field "swf" v with
    | None -> Ok (None, None)
    | Some text -> (
        match Bgl_trace.Swf.of_string ~name:"inline" text with
        | Ok (log, _report) ->
            Ok (Some log, Some (Digest.to_hex (Digest.string text)))
        | Error e -> Error ("swf payload: " ^ e))
  in
  let* failures, flog_digest =
    match str_field "failure_log" v with
    | None -> Ok (None, None)
    | Some text -> (
        match Bgl_trace.Failure_log.of_string ~name:"inline" text with
        | Ok f -> Ok (Some f, Some (Digest.to_hex (Digest.string text)))
        | Error e -> Error ("failure_log payload: " ^ e))
  in
  if failures <> None && log = None then
    Error "failure_log payload requires an swf payload"
  else Ok (Sim { scenario; log; failures; swf_digest; flog_digest })

let parse_sweep v =
  let* figure =
    match str_field "figure" v with
    | None -> Error "sweep requires a \"figure\" field"
    | Some id -> (
        match Figures.(find catalogue id) with
        | Some _ -> Ok (String.lowercase_ascii (String.trim id))
        | None -> Error (Printf.sprintf "unknown figure %S" id))
  in
  let* n_jobs = pos_int_field "jobs" v in
  let* n_seeds = pos_int_field "seeds" v in
  let* dims = dims_field v in
  let quick = Figures.quick in
  let scale =
    {
      quick with
      Figures.n_jobs = Option.value n_jobs ~default:quick.Figures.n_jobs;
      seeds =
        (match n_seeds with
        | None -> quick.Figures.seeds
        | Some n -> List.init n (fun i -> 11 + i));
      dims = Option.value dims ~default:quick.Figures.dims;
    }
  in
  Ok (Sweep { figure; scale })

let parse payload =
  let* v =
    match Jsonl.parse payload with
    | Ok v -> Ok v
    | Error e -> Error ("request is not valid JSON: " ^ e)
  in
  match str_field "op" v with
  | None -> Error "request has no \"op\" field"
  | Some "ping" -> Ok Ping
  | Some "health" -> Ok Health
  | Some "metrics" -> Ok Metrics
  | Some (("sim" | "sweep") as op) ->
      let* work = if op = "sim" then parse_sim v else parse_sweep v in
      let* fuel, deadline = budget_fields v in
      Ok (Work { work; fuel; deadline })
  | Some op -> Error (Printf.sprintf "unknown op %S" op)

(* --- identity --------------------------------------------------- *)

let key = function
  | Ping | Health | Metrics -> None
  | Work { work; fuel; deadline = _ } ->
      let fuel = match fuel with None -> "-" | Some f -> string_of_int f in
      let body =
        match work with
        | Sim s ->
            Printf.sprintf "sim|%s|swf=%s|flog=%s"
              (Scenario.label s.scenario)
              (Option.value s.swf_digest ~default:"-")
              (Option.value s.flog_digest ~default:"-")
        | Sweep s ->
            Printf.sprintf "sweep|%s|jobs=%d|seeds=%s|a=%s|ff=%s|dims=%s"
              s.figure s.scale.Figures.n_jobs
              (String.concat "," (List.map string_of_int s.scale.Figures.seeds))
              (String.concat ","
                 (List.map string_of_float s.scale.Figures.a_values))
              (String.concat ","
                 (List.map string_of_float s.scale.Figures.fail_fracs))
              (Bgl_torus.Dims.to_string s.scale.Figures.dims)
      in
      Some (body ^ "|fuel=" ^ fuel)

let fingerprint r =
  match key r with None -> None | Some k -> Some (Digest.to_hex (Digest.string k))

(* --- response frames -------------------------------------------- *)

let ev name fields = Jsonl.obj (("ev", Jsonl.string name) :: fields)

let pong = ev "pong" []

let health ~status ~queue_depth ~inflight ~memo_hits ~memo_misses
    ~requests_total ~heartbeat =
  let hb =
    match heartbeat with
    | None -> []
    | Some (h : Bgl_obs.Heartbeat.snapshot) ->
        [
          ( "engine",
            Jsonl.obj
              [
                ("sim_time", Jsonl.float h.sim_time);
                ("queue", Jsonl.int h.queue_depth);
                ("running", Jsonl.int h.running);
                ("free_nodes", Jsonl.int h.free_nodes);
              ] );
        ]
  in
  ev "health"
    ([
       ("status", Jsonl.string status);
       ("queue_depth", Jsonl.int queue_depth);
       ("inflight", Jsonl.int inflight);
       ("memo_hits", Jsonl.int memo_hits);
       ("memo_misses", Jsonl.int memo_misses);
       ("requests_total", Jsonl.int requests_total);
     ]
    @ hb)

let metrics ~prometheus = ev "metrics" [ ("prometheus", Jsonl.string prometheus) ]

let accepted ~req ~queue_depth =
  ev "accepted"
    [ ("req", Jsonl.string req); ("queue_depth", Jsonl.int queue_depth) ]

let rejected ~queue_depth ~retry_after =
  ev "rejected"
    [
      ("queue_depth", Jsonl.int queue_depth);
      ("retry_after", Jsonl.float retry_after);
    ]

let cell ~req ~label ~report =
  ev "cell"
    [
      ("req", Jsonl.string req);
      ("label", Jsonl.string label);
      ("report", Bgl_sim.Metrics.report_to_json report);
    ]

let result_sim ~req ~report =
  ev "result"
    [
      ("req", Jsonl.string req);
      ("kind", Jsonl.string "sim");
      ("report", Bgl_sim.Metrics.report_to_json report);
    ]

let points_json points =
  "["
  ^ String.concat ","
      (List.map
         (fun (x, y) -> "[" ^ Jsonl.float x ^ "," ^ Jsonl.float y ^ "]")
         points)
  ^ "]"

let series_json (s : Series.series) =
  Jsonl.obj
    [ ("label", Jsonl.string s.label); ("points", points_json s.points) ]

let figure_json (f : Series.figure) =
  Jsonl.obj
    [
      ("id", Jsonl.string f.id);
      ("title", Jsonl.string f.title);
      ("xlabel", Jsonl.string f.xlabel);
      ("ylabel", Jsonl.string f.ylabel);
      ("series", "[" ^ String.concat "," (List.map series_json f.series) ^ "]");
    ]

let result_sweep ~req ~figures ~quarantined =
  let quarantined_field =
    match quarantined with
    | [] -> []
    | cells ->
        [
          ( "quarantined",
            "["
            ^ String.concat "," (List.map Jsonl.string cells)
            ^ "]" );
        ]
  in
  ev "result"
    ([
       ("req", Jsonl.string req);
       ("kind", Jsonl.string "sweep");
       ("figures", "[" ^ String.concat "," (List.map figure_json figures) ^ "]");
     ]
    @ quarantined_field)

let error ?req ~code detail =
  let req = match req with None -> [] | Some r -> [ ("req", Jsonl.string r) ] in
  ev "error" (req @ [ ("code", Jsonl.int code); ("detail", Jsonl.string detail) ])

open Bgl_torus

(* Bump whenever the JSONL trace shape changes incompatibly; the
   auditor refuses schemas newer than it understands. Version 1 was
   the ad-hoc run_begin/run_end framing (PR 4); version 2 frames runs
   with run_meta/run_summary and records arrivals. *)
let schema_version = 2

type meta = {
  time : float;
  schema : int;
  log : string;
  failures : string;
  policy : string;
  dims : Dims.t;
  wrap : bool;
  jobs : int;
  seed : int option;
  parent : string option;
  repair_time : float;
  checkpointed : bool;
}

type entry =
  | Run_meta of meta
  | Job_arrived of { job : int; time : float; size : int; run_time : float }
  | Job_started of { job : int; time : float; box : Box.t; restart : bool }
  | Job_killed of { job : int; time : float; node : int; lost_node_seconds : float }
  | Job_finished of { job : int; time : float }
  | Job_migrated of { job : int; time : float; from_box : Box.t; to_box : Box.t }
  | Node_failed of { time : float; node : int; victim : int option }
  | Node_repaired of { time : float; node : int }
  | Run_summary of { time : float; report : Metrics.report }

type t = { sink : entry Bgl_obs.Sink.t }

let create ?sink () =
  { sink = (match sink with Some s -> s | None -> Bgl_obs.Sink.buffer ()) }

let time = function
  | Run_meta { time; _ }
  | Job_arrived { time; _ }
  | Job_started { time; _ }
  | Job_killed { time; _ }
  | Job_finished { time; _ }
  | Job_migrated { time; _ }
  | Node_failed { time; _ }
  | Node_repaired { time; _ }
  | Run_summary { time; _ } ->
      time

(* ------------------------------------------------------------------ *)
(* The wire format: [name] is the only place the event names are
   spelled for the printer, and [entry_of_json] below the only place
   for the parser. *)

let name = function
  | Run_meta _ -> "run_meta"
  | Job_arrived _ -> "job_arrive"
  | Job_started _ -> "job_start"
  | Job_killed _ -> "job_kill"
  | Job_finished _ -> "job_finish"
  | Job_migrated _ -> "job_migrate"
  | Node_failed _ -> "node_fail"
  | Node_repaired _ -> "node_repair"
  | Run_summary _ -> "run_summary"

(* Every string member is escaped, so the quoted ["ev":"run_summary"]
   fragment can only be the trailer's own event member. *)
let summary_needle = {|"ev":"run_summary"|}

let is_summary_line line =
  let n = String.length summary_needle and h = String.length line in
  let rec hit i j = j = n || (line.[i + j] = summary_needle.[j] && hit i (j + 1)) in
  let rec go i = i + n <= h && (hit i 0 || go (i + 1)) in
  go 0

let jsonl_of_box (b : Box.t) =
  Printf.sprintf "{\"x\":%d,\"y\":%d,\"z\":%d,\"sx\":%d,\"sy\":%d,\"sz\":%d}" b.base.x b.base.y
    b.base.z b.shape.sx b.shape.sy b.shape.sz

let entry_to_json ?run entry =
  let open Bgl_obs.Jsonl in
  let members =
    match entry with
    | Run_meta m ->
        [ ("schema", int m.schema); ("log", string m.log); ("failures", string m.failures);
          ("policy", string m.policy); ("dims", string (Dims.to_string m.dims));
          ("wrap", bool m.wrap); ("jobs", int m.jobs);
          ("seed", match m.seed with Some s -> int s | None -> "null");
          ("parent", match m.parent with Some p -> string p | None -> "null");
          ("repair_time", float m.repair_time); ("checkpointed", bool m.checkpointed) ]
    | Job_arrived a -> [ ("job", int a.job); ("size", int a.size); ("work", float a.run_time) ]
    | Job_started s -> [ ("job", int s.job); ("box", jsonl_of_box s.box); ("restart", bool s.restart) ]
    | Job_killed k ->
        [ ("job", int k.job); ("node", int k.node); ("lost_node_s", float k.lost_node_seconds) ]
    | Job_finished f -> [ ("job", int f.job) ]
    | Job_migrated m ->
        [ ("job", int m.job); ("from", jsonl_of_box m.from_box); ("to", jsonl_of_box m.to_box) ]
    | Node_failed n ->
        [ ("node", int n.node); ("victim", match n.victim with Some j -> int j | None -> "null") ]
    | Node_repaired n -> [ ("node", int n.node) ]
    | Run_summary s -> [ ("report", Metrics.report_to_json s.report) ]
  in
  let fields = ("ev", string (name entry)) :: ("t", float (time entry)) :: members in
  obj (match run with None -> fields | Some id -> ("run", string id) :: fields)

let ( let* ) = Result.bind

let member key v =
  Option.to_result ~none:(Printf.sprintf "missing member %S" key) (Bgl_obs.Jsonl.member key v)

let num key v =
  let* x = member key v in
  match x with
  | Bgl_obs.Jsonl.Number f -> Ok f
  | _ -> Error (Printf.sprintf "member %S is not a number" key)

let int_of_value key x =
  Option.to_result ~none:(Printf.sprintf "member %S is not an integer" key) (Bgl_obs.Jsonl.to_int x)

let intm key v =
  let* x = member key v in
  int_of_value key x

let strm key v =
  let* x = member key v in
  match x with
  | Bgl_obs.Jsonl.String s -> Ok s
  | _ -> Error (Printf.sprintf "member %S is not a string" key)

let boolm key v =
  let* x = member key v in
  match x with
  | Bgl_obs.Jsonl.Bool b -> Ok b
  | _ -> Error (Printf.sprintf "member %S is not a bool" key)

let opt_intm key v =
  let* x = member key v in
  match x with
  | Bgl_obs.Jsonl.Null -> Ok None
  | x -> Result.map Option.some (int_of_value key x)

let opt_strm key v =
  let* x = member key v in
  match x with
  | Bgl_obs.Jsonl.Null -> Ok None
  | Bgl_obs.Jsonl.String s -> Ok (Some s)
  | _ -> Error (Printf.sprintf "member %S is not a string or null" key)

let boxm key v =
  let* b = member key v in
  let* x = intm "x" b in
  let* y = intm "y" b in
  let* z = intm "z" b in
  let* sx = intm "sx" b in
  let* sy = intm "sy" b in
  let* sz = intm "sz" b in
  match Box.make (Coord.make x y z) (Shape.make sx sy sz) with
  | box -> Ok box
  | exception Invalid_argument m -> Error (Printf.sprintf "member %S: %s" key m)

let entry_of_json line =
  let* v = Bgl_obs.Jsonl.parse line in
  let* ev = strm "ev" v in
  let* time = num "t" v in
  let run =
    match Bgl_obs.Jsonl.member "run" v with Some (Bgl_obs.Jsonl.String s) -> Some s | _ -> None
  in
  let* entry =
    match ev with
    | "run_meta" ->
        let* schema = intm "schema" v in
        let* log = strm "log" v in
        let* failures = strm "failures" v in
        let* policy = strm "policy" v in
        let* dims = Result.bind (strm "dims" v) Dims.of_string in
        let* wrap = boolm "wrap" v in
        let* jobs = intm "jobs" v in
        let* seed = opt_intm "seed" v in
        let* parent = opt_strm "parent" v in
        let* repair_time = num "repair_time" v in
        let* checkpointed = boolm "checkpointed" v in
        Ok
          (Run_meta
             {
               time;
               schema;
               log;
               failures;
               policy;
               dims;
               wrap;
               jobs;
               seed;
               parent;
               repair_time;
               checkpointed;
             })
    | "job_arrive" ->
        let* job = intm "job" v in
        let* size = intm "size" v in
        let* run_time = num "work" v in
        Ok (Job_arrived { job; time; size; run_time })
    | "job_start" ->
        let* job = intm "job" v in
        let* box = boxm "box" v in
        let* restart = boolm "restart" v in
        Ok (Job_started { job; time; box; restart })
    | "job_kill" ->
        let* job = intm "job" v in
        let* node = intm "node" v in
        let* lost_node_seconds = num "lost_node_s" v in
        Ok (Job_killed { job; time; node; lost_node_seconds })
    | "job_finish" ->
        let* job = intm "job" v in
        Ok (Job_finished { job; time })
    | "job_migrate" ->
        let* job = intm "job" v in
        let* from_box = boxm "from" v in
        let* to_box = boxm "to" v in
        Ok (Job_migrated { job; time; from_box; to_box })
    | "node_fail" ->
        let* node = intm "node" v in
        let* victim = opt_intm "victim" v in
        Ok (Node_failed { time; node; victim })
    | "node_repair" ->
        let* node = intm "node" v in
        Ok (Node_repaired { time; node })
    | "run_summary" ->
        let* report = Result.bind (member "report" v) Metrics.report_of_json in
        Ok (Run_summary { time; report })
    | other -> Error (Printf.sprintf "unknown event %S" other)
  in
  Ok (run, entry)

let jsonl channel = create ~sink:(Bgl_obs.Sink.jsonl_channel ~to_json:entry_to_json channel) ()

let record t entry = Bgl_obs.Sink.emit t.sink entry
let entries t = Bgl_obs.Sink.contents t.sink
let length t = Bgl_obs.Sink.count t.sink
let is_buffered t = Bgl_obs.Sink.is_buffered t.sink
let flush t = Bgl_obs.Sink.flush t.sink

let pp_entry ppf = function
  | Run_meta m ->
      Format.fprintf ppf "%10.1f  meta    %s vs %s under %s on %s (%d jobs)" m.time m.log
        m.failures m.policy (Dims.to_string m.dims) m.jobs
  | Job_arrived a ->
      Format.fprintf ppf "%10.1f  arrive  job %d (%d nodes, %.3g s)" a.time a.job a.size a.run_time
  | Job_started s ->
      Format.fprintf ppf "%10.1f  start   job %d on %a%s" s.time s.job Box.pp s.box
        (if s.restart then " (restart)" else "")
  | Job_killed k ->
      Format.fprintf ppf "%10.1f  kill    job %d by node %d (lost %.3g node-s)" k.time k.job k.node
        k.lost_node_seconds
  | Job_finished f -> Format.fprintf ppf "%10.1f  finish  job %d" f.time f.job
  | Job_migrated m ->
      Format.fprintf ppf "%10.1f  migrate job %d %a -> %a" m.time m.job Box.pp m.from_box Box.pp
        m.to_box
  | Node_failed n ->
      Format.fprintf ppf "%10.1f  failure node %d%s" n.time n.node
        (match n.victim with Some j -> Format.asprintf " kills job %d" j | None -> " (idle)")
  | Node_repaired n -> Format.fprintf ppf "%10.1f  repair  node %d" n.time n.node
  | Run_summary s ->
      Format.fprintf ppf "%10.1f  summary %d/%d jobs completed" s.time s.report.completed_jobs
        s.report.total_jobs

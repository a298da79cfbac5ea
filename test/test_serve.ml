(* Tests for bgl-served: the frame codec, the bounded admission
   queue, the protocol parser and request fingerprints, the result
   memo and durable store — and end-to-end daemon tests that spawn the
   real binary: backpressure rejection, SIGTERM drain under load with
   zero lost requests, SIGKILL mid-sweep followed by a restart that
   resumes the journal and answers byte-identically (with the stitched
   per-attempt traces passing the auditor), and injected codec faults
   degrading to per-request errors. *)

open Bgl_serve

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let wrap f () =
  Bgl_resilience.Failpoint.reset ();
  Fun.protect ~finally:Bgl_resilience.Failpoint.reset f

let temp_dir name =
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "%s.%d" name (Unix.getpid ()))
  in
  let rec clear p =
    if Sys.file_exists p then
      if Sys.is_directory p then begin
        Array.iter (fun f -> clear (Filename.concat p f)) (Sys.readdir p);
        Unix.rmdir p
      end
      else Sys.remove p
  in
  clear path;
  Unix.mkdir path 0o755;
  path

(* ------------------------------------------------------------------ *)
(* Frame codec *)

let with_pipe f =
  let r, w = Unix.pipe () in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close r with Unix.Unix_error _ -> ());
      try Unix.close w with Unix.Unix_error _ -> ())
    (fun () -> f r w)

let write_raw fd s = ignore (Unix.write_substring fd s 0 (String.length s))

let test_frame_roundtrip () =
  with_pipe (fun r w ->
      let payloads =
        [ {|{"op":"ping"}|}; {|{"op":"sim","swf":"line1\nline2"}|}; "[1,2,3]" ]
      in
      List.iter (Frame.write w) payloads;
      Unix.close w;
      let reader = Frame.reader r in
      List.iter
        (fun expect ->
          match Frame.read reader with
          | Ok (Some got) -> check_string "payload" expect got
          | Ok None -> Alcotest.fail "premature EOF"
          | Error e -> Alcotest.failf "framing error: %s" e)
        payloads;
      check_bool "clean EOF" true (Frame.read reader = Ok None))

let test_frame_bare_json_and_blanks () =
  with_pipe (fun r w ->
      write_raw w "\n\r\n{\"op\":\"ping\"}\r\n";
      Unix.close w;
      let reader = Frame.reader r in
      (match Frame.read reader with
      | Ok (Some got) -> check_string "bare line" {|{"op":"ping"}|} got
      | _ -> Alcotest.fail "bare JSON line not accepted");
      check_bool "then EOF" true (Frame.read reader = Ok None))

let test_frame_torn_and_junk () =
  with_pipe (fun r w ->
      write_raw w "12\n{\"op\":\"pi";
      Unix.close w;
      match Frame.read (Frame.reader r) with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "torn frame must be a framing error");
  with_pipe (fun r w ->
      write_raw w "hello world\n";
      Unix.close w;
      match Frame.read (Frame.reader r) with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "junk header must be a framing error");
  with_pipe (fun r w ->
      write_raw w (string_of_int (Frame.max_frame + 1) ^ "\n");
      Unix.close w;
      match Frame.read (Frame.reader r) with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "oversized frame must be rejected")

let test_frame_failpoint () =
  Bgl_resilience.Failpoint.arm
    { site = "serve.frame"; mode = Bgl_resilience.Failpoint.Once };
  with_pipe (fun r w ->
      Frame.write w {|{"op":"ping"}|};
      Unix.close w;
      let reader = Frame.reader r in
      (match Frame.read reader with
      | exception Bgl_resilience.Failpoint.Injected _ -> ()
      | _ -> Alcotest.fail "armed serve.frame must raise");
      match Frame.read reader with
      | Ok (Some _) -> ()
      | _ -> Alcotest.fail "stream must survive the injected fault")

(* ------------------------------------------------------------------ *)
(* Admission *)

let test_admission_backpressure () =
  let q = Admission.create ~capacity:2 in
  check_bool "admit 1" true (Admission.submit q 1 = Admission.Admitted 1);
  check_bool "admit 2" true (Admission.submit q 2 = Admission.Admitted 2);
  check_bool "full at capacity" true (Admission.submit q 3 = Admission.Full 2);
  check_int "depth" 2 (Admission.depth q);
  check_bool "take fifo" true (Admission.take q = Some 1);
  check_bool "slot freed" true (Admission.submit q 4 = Admission.Admitted 2)

let test_admission_drain () =
  let q = Admission.create ~capacity:4 in
  ignore (Admission.submit q 1);
  Admission.drain q;
  check_bool "draining refuses" true (Admission.submit q 2 = Admission.Draining);
  check_bool "drains the backlog" true (Admission.take q = Some 1);
  check_bool "then terminal None" true (Admission.take q = None);
  (* a blocked consumer is woken by drain *)
  let q2 = Admission.create ~capacity:1 in
  let got = Atomic.make (Some 0) in
  let consumer = Thread.create (fun () -> Atomic.set got (Admission.take q2)) () in
  Thread.delay 0.05;
  Admission.drain q2;
  Thread.join consumer;
  check_bool "woken with None" true (Atomic.get got = None)

(* ------------------------------------------------------------------ *)
(* Protocol *)

let parse_ok payload =
  match Protocol.parse payload with
  | Ok r -> r
  | Error e -> Alcotest.failf "parse %s failed: %s" payload e

let fp payload = Option.get (Protocol.fingerprint (parse_ok payload))

let test_protocol_inline_ops () =
  check_bool "ping" true (parse_ok {|{"op":"ping"}|} = Protocol.Ping);
  check_bool "health" true (parse_ok {|{"op":"health"}|} = Protocol.Health);
  check_bool "metrics" true (parse_ok {|{"op":"metrics"}|} = Protocol.Metrics);
  check_bool "no fingerprint" true
    (Protocol.fingerprint Protocol.Ping = None)

let test_protocol_rejects () =
  let bad payload =
    match Protocol.parse payload with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "expected a parse error for %s" payload
  in
  bad {|not json|};
  bad {|{"no":"op"}|};
  bad {|{"op":"launch-missiles"}|};
  bad {|{"op":"sim","algo":"quantum"}|};
  bad {|{"op":"sim","jobs":0}|};
  (* a load the workload generator would refuse is refused here, before
     the request is admitted and journaled *)
  bad {|{"op":"sim","load":0}|};
  bad {|{"op":"sim","load":-1.5}|};
  bad {|{"op":"sim","load":1e999}|};
  (* a negative failure count is refused rather than run as no
     failures or left for the failure generator to reject *)
  bad {|{"op":"sim","failures":-5}|};
  bad {|{"op":"sim","failures":-5000}|};
  bad {|{"op":"sweep"}|};
  bad {|{"op":"sweep","figure":"42"}|};
  bad {|{"op":"sim","failure_log":"x"}|};
  bad {|{"op":"sim","fuel":-3}|};
  (* 1e19 is not an integer a float holds exactly; int_of_float would
     wrap it to 0 and serve seed 0's memoised result *)
  bad {|{"op":"sim","algo":"mfp","jobs":50,"seed":1e19}|};
  bad {|{"op":"sim","swf":"definitely not swf"}|}

let test_protocol_fingerprint_semantics () =
  (* identity is semantic: field order and defaults don't matter *)
  check_string "field order irrelevant"
    (fp {|{"op":"sim","algo":"mfp","jobs":200,"seed":7}|})
    (fp {|{"seed":7,"jobs":200,"algo":"mfp","op":"sim"}|});
  check_string "explicit default = omitted default"
    (fp {|{"op":"sim","algo":"mfp","jobs":200,"load":1.0}|})
    (fp {|{"op":"sim","algo":"mfp","jobs":200}|});
  check_bool "seed distinguishes" true
    (fp {|{"op":"sim","algo":"mfp","jobs":200,"seed":7}|}
    <> fp {|{"op":"sim","algo":"mfp","jobs":200,"seed":8}|});
  check_bool "fuel is identity" true
    (fp {|{"op":"sim","algo":"mfp","jobs":200,"fuel":1000}|}
    <> fp {|{"op":"sim","algo":"mfp","jobs":200}|});
  check_string "deadline is not identity"
    (fp {|{"op":"sim","algo":"mfp","jobs":200,"deadline":5.0}|})
    (fp {|{"op":"sim","algo":"mfp","jobs":200}|})

let test_protocol_sweep_scale () =
  match parse_ok {|{"op":"sweep","figure":"3","jobs":500,"seeds":3,"dims":"8x8x8"}|} with
  | Protocol.Work { work = Protocol.Sweep s; _ } ->
      check_int "jobs" 500 s.Protocol.scale.Bgl_core.Figures.n_jobs;
      check_int "seeds" 3 (List.length s.Protocol.scale.Bgl_core.Figures.seeds);
      check_string "dims" "8x8x8"
        (Bgl_torus.Dims.to_string s.Protocol.scale.Bgl_core.Figures.dims);
      check_string "figure" "3" s.Protocol.figure
  | _ -> Alcotest.fail "expected a sweep work item"

(* ------------------------------------------------------------------ *)
(* Memo and store *)

let test_memo () =
  let m = Memo.create ~capacity:2 in
  check_bool "miss" true (Memo.find m "a" = None);
  Memo.add m "a" "ra";
  Memo.add m "b" "rb";
  check_bool "hit" true (Memo.find m "a" = Some "ra");
  Memo.add m "c" "rc" (* evicts a, the oldest *);
  check_bool "evicted" true (Memo.find m "a" = None);
  check_bool "kept" true (Memo.find m "c" = Some "rc");
  check_int "hits" 2 (Memo.hits m);
  check_int "misses" 2 (Memo.misses m);
  check_int "bounded" 2 (Memo.length m)

let test_store () =
  let dir = temp_dir "bgl_test_store" in
  let s = Store.create ~dir in
  Store.record_request s ~fp:"aa" ~payload:"req-a";
  Store.record_request s ~fp:"bb" ~payload:"req-b";
  check_bool "both pending" true
    (List.sort compare (Store.pending s) = [ ("aa", "req-a"); ("bb", "req-b") ]);
  Store.record_result s ~fp:"aa" ~frame:"result-a";
  check_bool "completed leaves pending" true (Store.pending s = [ ("bb", "req-b") ]);
  check_bool "result replays" true (Store.result s ~fp:"aa" = Some "result-a");
  check_bool "no result yet" true (Store.result s ~fp:"bb" = None);
  Store.remove s ~fp:"bb";
  check_bool "removed" true (Store.pending s = [])

(* ------------------------------------------------------------------ *)
(* End-to-end daemon tests *)

(* Resolved relative to this test binary so it works under both `dune
   runtest` (cwd = test dir) and `dune exec` (cwd = project root). *)
let served_exe =
  Filename.concat
    (Filename.dirname Sys.executable_name)
    (Filename.concat ".." (Filename.concat "bin" "bgl_served_cli.exe"))

let start_server ?(extra = []) ~sock ~state () =
  let argv =
    [ served_exe; "start"; "-l"; "unix:" ^ sock; "--state-dir"; state; "--domains"; "2" ]
    @ extra
  in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let log =
    Unix.openfile (state ^ ".log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ]
      0o644
  in
  let pid = Unix.create_process served_exe (Array.of_list argv) null Unix.stdout log in
  Unix.close null;
  Unix.close log;
  pid

let connect sock =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_UNIX sock) with e -> Unix.close fd; raise e);
  fd

let rec wait_ready ?(tries = 100) sock =
  match connect sock with
  | fd -> Unix.close fd
  | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
      if tries = 0 then Alcotest.fail "server never came up";
      Thread.delay 0.1;
      wait_ready ~tries:(tries - 1) sock

let frame_ev frame =
  match Bgl_obs.Jsonl.parse frame with
  | Error _ -> None
  | Ok v -> Option.bind (Bgl_obs.Jsonl.member "ev" v) Bgl_obs.Jsonl.to_string_opt

(* Send one request; collect frames until a terminal one. *)
let request sock payload =
  let fd = connect sock in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Frame.write fd payload;
      let reader = Frame.reader fd in
      let rec loop acc =
        match Frame.read reader with
        | Ok (Some frame) -> (
            match frame_ev frame with
            | Some ("result" | "error" | "rejected" | "pong" | "health" | "metrics")
              ->
                List.rev (frame :: acc)
            | _ -> loop (frame :: acc))
        | Ok None -> List.rev acc
        | Error e -> Alcotest.failf "client framing error: %s" e
      in
      loop [])

let last_ev sock payload =
  match List.rev (request sock payload) with
  | [] -> Alcotest.fail "no response frames"
  | last :: _ -> (Option.value (frame_ev last) ~default:"?", last)

let stop_server pid =
  Unix.kill pid Sys.sigterm;
  let _, status = Unix.waitpid [] pid in
  status

let test_served_ping_health_metrics () =
  let dir = temp_dir "bgl_e2e_ping" in
  let sock = Filename.concat dir "s.sock" in
  let pid = start_server ~sock ~state:(Filename.concat dir "state") () in
  Fun.protect
    ~finally:(fun () -> try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ())
    (fun () ->
      wait_ready sock;
      check_string "pong" "pong" (fst (last_ev sock {|{"op":"ping"}|}));
      let ev, frame = last_ev sock {|{"op":"health"}|} in
      check_string "health" "health" ev;
      check_bool "status ok" true
        (Option.bind (Bgl_obs.Jsonl.parse frame |> Result.to_option)
           (fun v ->
             Option.bind (Bgl_obs.Jsonl.member "status" v)
               Bgl_obs.Jsonl.to_string_opt)
        = Some "ok");
      let ev, frame = last_ev sock {|{"op":"metrics"}|} in
      check_string "metrics" "metrics" ev;
      check_bool "prometheus text" true
        (let contains hay needle =
           let n = String.length needle and h = String.length hay in
           let rec go i =
             i + n <= h && (String.sub hay i n = needle || go (i + 1))
           in
           go 0
         in
         contains frame "bgl_serve_requests_total");
      check_bool "clean drain" true (stop_server pid = Unix.WEXITED 0))

let test_served_backpressure () =
  let dir = temp_dir "bgl_e2e_bp" in
  let sock = Filename.concat dir "s.sock" in
  let pid =
    start_server ~extra:[ "--queue"; "1" ] ~sock ~state:(Filename.concat dir "state") ()
  in
  Fun.protect
    ~finally:(fun () -> try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ())
    (fun () ->
      wait_ready sock;
      (* A: occupies the executor. B: fills the queue. C: must bounce
         with an explicit rejection, immediately. A must outlast the
         0.6 s before C: a 600-job figure-3 sweep takes about 1.3 s on
         an idle 2-vCPU VM, where a 200-job one took under 0.5 s. *)
      let slow seed =
        Printf.sprintf
          {|{"op":"sweep","figure":"3","jobs":600,"seeds":1,"seed":%d}|} seed
      in
      let a = Thread.create (fun () -> request sock (slow 1)) () in
      Thread.delay 0.4;
      let b =
        Thread.create
          (fun () -> request sock {|{"op":"sim","algo":"mfp","jobs":150}|})
          ()
      in
      Thread.delay 0.2;
      let ev, frame =
        last_ev sock {|{"op":"sim","algo":"mfp","jobs":150,"seed":99}|}
      in
      check_string "backpressure" "rejected" ev;
      check_bool "advertises retry_after" true
        (Option.bind (Bgl_obs.Jsonl.parse frame |> Result.to_option)
           (fun v -> Bgl_obs.Jsonl.member "retry_after" v)
        <> None);
      Thread.join a;
      Thread.join b;
      check_bool "clean drain" true (stop_server pid = Unix.WEXITED 0))

let count_files dir suffix =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f suffix)
  |> List.length

let test_served_drain_under_load () =
  let dir = temp_dir "bgl_e2e_drain" in
  let sock = Filename.concat dir "s.sock" in
  let state = Filename.concat dir "state" in
  let pid = start_server ~sock ~state () in
  wait_ready sock;
  let payloads =
    List.map
      (fun seed ->
        Printf.sprintf {|{"op":"sim","algo":"mfp","jobs":250,"seed":%d}|} seed)
      [ 1; 2; 3 ]
  in
  (* Clients hold their connections through the drain: every admitted
     request must still be answered. *)
  let clients = List.map (fun p -> Thread.create (fun () -> request sock p) ()) payloads in
  Thread.delay 0.3;
  let status = stop_server pid in
  check_bool "SIGTERM drain exits 0" true (status = Unix.WEXITED 0);
  List.iter Thread.join clients;
  check_int "every accepted request has a durable result" 3
    (count_files state ".result");
  check_int "none were lost or duplicated" 3 (count_files state ".req")

let rec wait_for ?(tries = 200) pred =
  if pred () then ()
  else if tries = 0 then Alcotest.fail "condition never became true"
  else begin
    Thread.delay 0.05;
    wait_for ~tries:(tries - 1) pred
  end

let read_file path = In_channel.with_open_bin path In_channel.input_all

let test_served_kill9_resume_byte_identical () =
  let payload = {|{"op":"sweep","figure":"3","jobs":200,"seeds":1}|} in
  (* baseline: the uninterrupted answer *)
  let dir = temp_dir "bgl_e2e_kill" in
  let base_sock = Filename.concat dir "base.sock" in
  let base_state = Filename.concat dir "base" in
  let bpid = start_server ~sock:base_sock ~state:base_state () in
  wait_ready base_sock;
  let baseline =
    match List.rev (request base_sock payload) with
    | last :: _ -> last
    | [] -> Alcotest.fail "no baseline result"
  in
  check_bool "baseline drains" true (stop_server bpid = Unix.WEXITED 0);
  (* the victim: SIGKILL once the sweep has journaled some cells *)
  let sock = Filename.concat dir "s.sock" in
  let state = Filename.concat dir "state" in
  let pid = start_server ~sock ~state () in
  wait_ready sock;
  (* The kill cuts the client's connection mid-request. *)
  let client =
    Thread.create
      (fun () -> try ignore (request sock payload) with Unix.Unix_error _ | End_of_file -> ())
      ()
  in
  wait_for (fun () ->
      count_files state ".journal" = 1
      && (let j = Sys.readdir state |> Array.to_list
              |> List.find (fun f -> Filename.check_suffix f ".journal") in
          let lines =
            String.split_on_char '\n' (read_file (Filename.concat state j))
          in
          List.length (List.filter (fun l -> String.trim l <> "") lines) >= 2));
  Unix.kill pid Sys.sigkill;
  ignore (Unix.waitpid [] pid);
  Thread.join client;
  check_int "no result was stored before the kill" 0 (count_files state ".result");
  (* restart: recovery resumes the journal before accepting *)
  let pid2 = start_server ~sock ~state () in
  Fun.protect
    ~finally:(fun () -> try Unix.kill pid2 Sys.sigkill with Unix.Unix_error _ -> ())
    (fun () ->
      wait_ready ~tries:600 sock;
      let resumed =
        match List.rev (request sock payload) with
        | last :: _ -> last
        | [] -> Alcotest.fail "no resumed result"
      in
      check_string "byte-identical after kill -9 and resume" baseline resumed;
      check_bool "replayed, not re-simulated" true
        (count_files state ".result" = 1);
      (* the stitched per-attempt traces certify as one schedule *)
      let traces =
        Sys.readdir state |> Array.to_list
        |> List.filter (fun f ->
               let rec has_trace s =
                 match Filename.extension s with
                 | "" -> false
                 | ext -> ext = ".trace" || has_trace (Filename.remove_extension s)
               in
               has_trace f)
        |> List.sort compare
        |> List.map (Filename.concat state)
      in
      check_bool "two attempts traced" true (List.length traces = 2);
      (match Bgl_audit.Driver.audit_files traces with
      | Ok cert -> check_bool "stitched audit passes" true (Bgl_audit.Driver.pass cert)
      | Error e ->
          Alcotest.failf "audit failed to run: %s" (Bgl_resilience.Error.to_string e));
      check_bool "clean drain" true (stop_server pid2 = Unix.WEXITED 0))

let test_served_injected_frame_fault_degrades () =
  let dir = temp_dir "bgl_e2e_fp" in
  let sock = Filename.concat dir "s.sock" in
  let pid =
    start_server
      ~extra:[ "--fail"; "serve.frame:once" ]
      ~sock ~state:(Filename.concat dir "state") ()
  in
  Fun.protect
    ~finally:(fun () -> try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ())
    (fun () ->
      (* No probe connection here: it would consume the armed fault.
         The socket file appears once the server is bound. *)
      wait_for (fun () -> Sys.file_exists sock);
      (* the armed read fault costs this request, answered in-band *)
      let ev, _ = last_ev sock {|{"op":"ping"}|} in
      check_string "per-request error" "error" ev;
      (* ...and nothing else: the server still serves *)
      check_string "server survives" "pong" (fst (last_ev sock {|{"op":"ping"}|}));
      check_bool "clean drain" true (stop_server pid = Unix.WEXITED 0))

(* ------------------------------------------------------------------ *)

let () =
  let t name f = Alcotest.test_case name `Quick (wrap f) in
  let slow name f = Alcotest.test_case name `Slow (wrap f) in
  Alcotest.run "serve"
    [
      ( "frame",
        [
          t "round-trip" test_frame_roundtrip;
          t "bare JSON and blank lines" test_frame_bare_json_and_blanks;
          t "torn, junk, oversized" test_frame_torn_and_junk;
          t "failpoint" test_frame_failpoint;
        ] );
      ( "admission",
        [
          t "backpressure at capacity" test_admission_backpressure;
          t "drain semantics" test_admission_drain;
        ] );
      ( "protocol",
        [
          t "inline ops" test_protocol_inline_ops;
          t "rejects bad requests" test_protocol_rejects;
          t "fingerprint semantics" test_protocol_fingerprint_semantics;
          t "sweep scale mapping" test_protocol_sweep_scale;
        ] );
      ("memo", [ t "hits, misses, eviction" test_memo ]);
      ("store", [ t "request lifecycle" test_store ]);
      ( "daemon",
        [
          slow "ping, health, metrics" test_served_ping_health_metrics;
          slow "backpressure rejection" test_served_backpressure;
          slow "SIGTERM drain under load" test_served_drain_under_load;
          slow "kill -9, resume, byte-identical + audit"
            test_served_kill9_resume_byte_identical;
          slow "injected frame fault degrades" test_served_injected_frame_fault_degrades;
        ] );
    ]

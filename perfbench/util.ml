(* Clock, order statistics, process memory and result output shared by
   the workloads. *)

(* Every duration in the benchmark comes from CLOCK_MONOTONIC, which
   does not step when the wall clock is adjusted. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Linear interpolation between closest ranks; [q] in [0, 1]. *)
let quantile q xs =
  match List.sort Float.compare xs with
  | [] -> invalid_arg "quantile: no samples"
  | sorted ->
      let a = Array.of_list sorted in
      let pos = q *. float_of_int (Array.length a - 1) in
      let lo = int_of_float pos in
      let hi = min (lo + 1) (Array.length a - 1) in
      a.(lo) +. ((pos -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = quantile 0.5 xs

let mean xs =
  match xs with [] -> 0. | _ -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

(* --- machine-speed calibration ------------------------------------- *)

(* On a shared machine the speed a process gets drifts by 20-50% over
   minutes, as neighbours come and go, and CPU time drifts with it. A
   run therefore also times a fixed kernel that does not depend on the
   program — hashing, sorting and list allocation, the simulator's mix
   — interleaved with its measurements, and reports its times rescaled
   to the speed at which the kernel takes [kernel_nominal_s]. A change
   to the program leaves the kernel alone, so a program twice as slow
   still reads twice as slow. *)
let kernel () =
  (* Rounds over a working set of about 1 MB, so the kernel does not
     raise the peak RSS a sim workload reports. *)
  let acc = ref 0 in
  for r = 1 to 8 do
    let h = Hashtbl.create 1024 in
    for i = 0 to 16_383 do
      Hashtbl.replace h (((i * 7919) + r) land 0x1fff) (i, float_of_int i)
    done;
    let a = Array.init 16_384 (fun i -> float_of_int (((i + r) * 2654435761) land 0xfffff)) in
    Array.sort Float.compare a;
    let l = List.init 8192 (fun i -> (i, string_of_int i)) in
    acc := !acc + Hashtbl.length h + int_of_float a.(100) + List.length (List.rev l)
  done;
  Sys.opaque_identity !acc

(* Roughly the kernel's median time on a quiet 2-vCPU shared VM, where
   it read 0.053-0.057 s; it only sets the scale of reported times. *)
let kernel_nominal_s = 0.05

type calibration = { mutable kernel_s : float list }

let calibration () = { kernel_s = [] }

(* One kernel sample, from a compacted heap. *)
let calibrate c =
  Gc.compact ();
  let t0 = now () in
  ignore (kernel ());
  c.kernel_s <- (now () -. t0) :: c.kernel_s

(* [x] seconds measured in this run, rescaled to the nominal speed. *)
let rescale c x = x *. kernel_nominal_s /. median c.kernel_s

(* Peak resident set size (VmHWM) of a process, in MiB. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec scan () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
                float_of_int kb /. 1024.)
        | _ -> scan ()
        | exception End_of_file -> failwith ("no VmHWM in " ^ path)
      in
      scan ())

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun entry -> rm_rf (Filename.concat path entry)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let log fmt = Printf.eprintf (fmt ^^ "\n%!")

(* A run's outcome: operations attempted and failed, whether every
   output checked out, and the measured values by metric name. *)
type result = { correct : bool; attempted : int; failed : int; values : (string * float) list }

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

(* The result line: every metric of [catalogue], in its order, with its
   unit. A metric the workload does not exercise reads 0. *)
let result_to_json catalogue r =
  let metrics =
    List.map
      (fun (name, unit) ->
        let v = Option.value (List.assoc_opt name r.values) ~default:0. in
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit)
      catalogue
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    r.correct r.attempted r.failed (String.concat ", " metrics)

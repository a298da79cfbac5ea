(* Shared by the suites that drive the domain pool: every parallel
   figure sweep in the tests takes the one production path,
   [Sweep.run] on a [Pool.t]. *)

let with_pool ~domains f =
  let pool = Bgl_parallel.Pool.create ~domains in
  Fun.protect ~finally:(fun () -> Bgl_parallel.Pool.shutdown pool) (fun () -> f pool)

(* The figures producer [f] renders at [scale] when its cells are
   simulated on a fresh [domains]-sized pool. *)
let sweep_figures ~domains f scale =
  match with_pool ~domains (fun pool -> Bgl_core.Sweep.run ~pool f scale) with
  | Ok o -> o.Bgl_core.Sweep.figures
  | Error e -> Alcotest.failf "sweep failed: %s" (Bgl_resilience.Error.to_string e)

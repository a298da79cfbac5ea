open Bgl_torus
module Cache = Bgl_partition.Finder.Cache

type ctx = {
  now : float;
  grid : Grid.t;
  cache : Cache.t;
  mfp_before : int Lazy.t;
}

type t = {
  name : string;
  choose :
    ctx -> job:Bgl_trace.Job_log.job -> volume:int -> candidates:Box.t list -> Box.t option;
}

let make_ctx ?cache ~now grid =
  let cache =
    match cache with Some c when Cache.grid c == grid -> c | _ -> Cache.create grid
  in
  { now; grid; cache; mfp_before = lazy (Bgl_partition.Mfp.volume ~cache grid) }

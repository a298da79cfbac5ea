exception Budget_exceeded of { site : string; detail : string }

let () =
  Printexc.register_printer (function
    | Budget_exceeded { site; detail } ->
        Some (Printf.sprintf "Budget_exceeded(%s: %s)" site detail)
    | _ -> None)

type t = { fuel : int option; deadline : float option }

type installed = {
  spec : t;
  mutable remaining : int;  (* meaningful when spec.fuel <> None *)
  mutable expires_at : float;  (* meaningful when spec.deadline <> None *)
  mutable until_clock : int;  (* checks left before the next clock read *)
}

let make ?fuel ?deadline () =
  (match (fuel, deadline) with
  | None, None -> invalid_arg "Budget.make: give fuel and/or deadline"
  | _ -> ());
  (match fuel with
  | Some f when f <= 0 -> invalid_arg "Budget.make: fuel must be positive"
  | _ -> ());
  (match deadline with
  | Some d when d <= 0. -> invalid_arg "Budget.make: deadline must be positive"
  | _ -> ());
  { fuel; deadline }

let clock_every = 256

let ambient : installed option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let with_budget spec f =
  match spec with
  | None -> f ()
  | Some spec ->
      let cell = Domain.DLS.get ambient in
      let prev = !cell in
      cell :=
        Some
          {
            spec;
            remaining = Option.value spec.fuel ~default:max_int;
            expires_at =
              (match spec.deadline with
              | Some d -> Bgl_obs.Clock.now () +. d
              | None -> Float.infinity);
            until_clock = clock_every;
          };
      Fun.protect ~finally:(fun () -> cell := prev) f

let check ~site =
  match !(Domain.DLS.get ambient) with
  | None -> ()
  | Some b ->
      (match b.spec.fuel with
      | Some fuel ->
          b.remaining <- b.remaining - 1;
          if b.remaining < 0 then
            raise
              (Budget_exceeded
                 { site; detail = Printf.sprintf "fuel of %d checks spent" fuel })
      | None -> ());
      (match b.spec.deadline with
      | Some d ->
          b.until_clock <- b.until_clock - 1;
          if b.until_clock <= 0 then begin
            b.until_clock <- clock_every;
            if Bgl_obs.Clock.now () > b.expires_at then
              raise
                (Budget_exceeded
                   { site; detail = Printf.sprintf "deadline of %gs passed" d })
          end
      | None -> ())

type t = { nx : int; ny : int; nz : int }

let make nx ny nz =
  if nx <= 0 || ny <= 0 || nz <= 0 then invalid_arg "Dims.make: dimensions must be positive";
  { nx; ny; nz }

let bgl = make 4 4 8
let bgl_full = make 64 32 32
let volume t = t.nx * t.ny * t.nz
let pp ppf t = Format.fprintf ppf "%dx%dx%d" t.nx t.ny t.nz
let to_string t = Format.asprintf "%a" pp t

let of_string s =
  let s = String.lowercase_ascii (String.trim s) in
  (* Accept both "64x32x32" and "64,32,32"; mixing separators is
     rejected by the three-way split below. *)
  let sep = if String.contains s ',' then ',' else 'x' in
  match String.split_on_char sep s with
  | [ a; b; c ] -> (
      match
        (int_of_string_opt (String.trim a), int_of_string_opt (String.trim b),
         int_of_string_opt (String.trim c))
      with
      | Some nx, Some ny, Some nz when nx > 0 && ny > 0 && nz > 0 -> Ok (make nx ny nz)
      | _ -> Error (Printf.sprintf "invalid dimensions %S (expected e.g. 4x4x8 or 64,32,32)" s))
  | _ -> Error (Printf.sprintf "invalid dimensions %S (expected e.g. 4x4x8 or 64,32,32)" s)

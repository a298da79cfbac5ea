let escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let string s = "\"" ^ escape s ^ "\""

let float v =
  if not (Float.is_finite v) then "null"
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.12g" v

let int = string_of_int
let bool = string_of_bool

let obj fields =
  "{" ^ String.concat "," (List.map (fun (k, v) -> string k ^ ":" ^ v) fields) ^ "}"

(* ------------------------------------------------------------------ *)
(* Parsing: a recursive-descent parser into a small AST. The journal
   reader and the tests consume it; [valid] is the parser with the
   value thrown away. *)

type value =
  | Null
  | Bool of bool
  | Number of float
  | String of string
  | Array of value list
  | Object of (string * value) list

exception Bad of int * string

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let bad msg = raise (Bad (!pos, msg)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let expect c =
    if peek () = Some c then advance () else bad (Printf.sprintf "expected %C" c)
  in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | Some _ | None -> ()
  in
  let literal lit v =
    let l = String.length lit in
    if !pos + l <= n && String.sub s !pos l = lit then begin
      pos := !pos + l;
      v
    end
    else bad (Printf.sprintf "expected %s" lit)
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | Some '{' -> obj_body ()
    | Some '[' -> arr_body ()
    | Some '"' -> String (str ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some ('-' | '0' .. '9') -> Number (number ())
    | Some _ | None -> bad "expected a JSON value"
  and str () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> bad "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' ->
          advance ();
          (match peek () with
          | Some '"' -> advance (); Buffer.add_char buf '"'
          | Some '\\' -> advance (); Buffer.add_char buf '\\'
          | Some '/' -> advance (); Buffer.add_char buf '/'
          | Some 'b' -> advance (); Buffer.add_char buf '\b'
          | Some 'f' -> advance (); Buffer.add_char buf '\012'
          | Some 'n' -> advance (); Buffer.add_char buf '\n'
          | Some 'r' -> advance (); Buffer.add_char buf '\r'
          | Some 't' -> advance (); Buffer.add_char buf '\t'
          | Some 'u' ->
              advance ();
              let code = ref 0 in
              for _ = 1 to 4 do
                match peek () with
                | Some ('0' .. '9' | 'a' .. 'f' | 'A' .. 'F') ->
                    code := (16 * !code) + int_of_string (Printf.sprintf "0x%c" s.[!pos]);
                    advance ()
                | Some _ | None -> bad "bad \\u escape"
              done;
              (* Escaped code points re-encode as UTF-8; the emitter
                 only escapes control characters, so this is enough to
                 round-trip anything [escape] produces. *)
              let c = !code in
              if c < 0x80 then Buffer.add_char buf (Char.chr c)
              else if c < 0x800 then begin
                Buffer.add_char buf (Char.chr (0xC0 lor (c lsr 6)));
                Buffer.add_char buf (Char.chr (0x80 lor (c land 0x3F)))
              end
              else begin
                Buffer.add_char buf (Char.chr (0xE0 lor (c lsr 12)));
                Buffer.add_char buf (Char.chr (0x80 lor ((c lsr 6) land 0x3F)));
                Buffer.add_char buf (Char.chr (0x80 lor (c land 0x3F)))
              end
          | Some _ | None -> bad "bad escape");
          go ()
      | Some c when Char.code c < 0x20 -> bad "control character in string"
      | Some c ->
          advance ();
          Buffer.add_char buf c;
          go ()
    in
    go ();
    Buffer.contents buf
  and number () =
    let start = !pos in
    if peek () = Some '-' then advance ();
    let digits () =
      let d0 = !pos in
      let rec go () = match peek () with Some '0' .. '9' -> advance (); go () | _ -> () in
      go ();
      if !pos = d0 then bad "expected digits"
    in
    digits ();
    if peek () = Some '.' then begin advance (); digits () end;
    (match peek () with
    | Some ('e' | 'E') ->
        advance ();
        (match peek () with Some ('+' | '-') -> advance () | _ -> ());
        digits ()
    | _ -> ());
    float_of_string (String.sub s start (!pos - start))
  and obj_body () =
    expect '{';
    skip_ws ();
    if peek () = Some '}' then begin
      advance ();
      Object []
    end
    else
      let rec members acc =
        skip_ws ();
        let k = str () in
        skip_ws ();
        expect ':';
        let v = value () in
        skip_ws ();
        match peek () with
        | Some ',' ->
            advance ();
            members ((k, v) :: acc)
        | Some '}' ->
            advance ();
            Object (List.rev ((k, v) :: acc))
        | Some _ | None -> bad "expected ',' or '}'"
      in
      members []
  and arr_body () =
    expect '[';
    skip_ws ();
    if peek () = Some ']' then begin
      advance ();
      Array []
    end
    else
      let rec elements acc =
        let v = value () in
        skip_ws ();
        match peek () with
        | Some ',' ->
            advance ();
            elements (v :: acc)
        | Some ']' ->
            advance ();
            Array (List.rev (v :: acc))
        | Some _ | None -> bad "expected ',' or ']'"
      in
      elements []
  in
  match value () with
  | v ->
      skip_ws ();
      if !pos = n then Ok v else Error (Printf.sprintf "trailing bytes at offset %d" !pos)
  | exception Bad (at, msg) -> Error (Printf.sprintf "%s at offset %d" msg at)

let member key = function
  | Object fields -> List.assoc_opt key fields
  | Null | Bool _ | Number _ | String _ | Array _ -> None

let to_float = function
  | Number v -> Some v
  | Null | Bool _ | String _ | Array _ | Object _ -> None

(* Integers travel as JSON numbers, which [parse] reads as floats:
   accept only values a float holds exactly, so no decoder silently
   truncates (2.7 -> 2) or wraps (1e19 -> 0) an integer. *)
let to_int = function
  | Number v when Float.is_integer v && Float.abs v <= 0x1p53 -> Some (int_of_float v)
  | Null | Bool _ | Number _ | String _ | Array _ | Object _ -> None

let to_string_opt = function
  | String s -> Some s
  | Null | Bool _ | Number _ | Array _ | Object _ -> None

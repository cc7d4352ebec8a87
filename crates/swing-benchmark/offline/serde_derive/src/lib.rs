//! Offline stand-in for `serde_derive`. The Swing crates derive
//! `Serialize`/`Deserialize` but never drive a serde format (every
//! exporter is hand-rolled), so the derives expand to nothing.

use proc_macro::TokenStream;

/// `#[derive(Serialize)]`: accepted, expands to nothing.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}

/// `#[derive(Deserialize)]`: accepted, expands to nothing.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}

//! SHA-256 digests of every `repro_all` table at the `--fast` budget,
//! text and JSON, recorded from this repository at the commit that added
//! the benchmark. The JSON digests are those of the files
//! `repro all --fast --json DIR` writes.
//!
//! `experiments_out/` is not used as the golden: most of its files no
//! longer match what `repro all` produces. A change that alters a table
//! on purpose re-records these with `perfbench --record-digests`.

/// `(label, sha256 of the rendered text, sha256 of the JSON rows)`.
pub const TABLES: [(&str, &str, &str); 17] = [
    (
        "table1",
        "379b63d425156a6cfc085c5d9f49f21dc4b123505f99c0914f257796d5804f1b",
        "9e32d43f7feb2f22864fd173a9224b3a770ea02842f55c157e4c25644cfdffed",
    ),
    (
        "table2",
        "f1f587392a16ae5a6c894a750b9a8626a1d351a6f1a0fb113eaa11081c9c5421",
        "ab3679b452059cb9d8df6a1d160e97b4ae782a1c4f51d603c18159b9f56e7e0f",
    ),
    (
        "table3",
        "35ad1732d21316d0e0263f31505f1c88270115c4ea8a68288af4b9ce9b829f19",
        "5fdddbdfbea12ed464b685f2c33de255e19213839b180a4a2417bea388303d59",
    ),
    (
        "table4",
        "c4845ef8b1ad13620bf7764c93899c424c6df8bf4c8fa73bbf15ed72260dd12d",
        "bd8ebb901d5f188254bfd84eff285369865d61b121adb9f827ef67a1e19f3548",
    ),
    (
        "table5",
        "ef41b763d4aaeecb2f86e520ebde25f0ddb2332de1520de3add1474a42b07b21",
        "b2304df7a2321c546700dc387d79f86299fbeb10993fc2654fcfdafe1410f17a",
    ),
    (
        "table6",
        "748dc86496249d472a460b99a5b4c1a181829ba880d0769abb6c155d46209708",
        "458b4ee374f6e0f922c5a1a96a44a7980f3740c36c0acfab79128203dfc35492",
    ),
    (
        "table7",
        "008d2204f2caf251ef7d792e62d2aa7f9b12e74ad438affce8c7b4029fc1b907",
        "afd54c96eecc007fbdc8b879c4a3aebb8ea492dd16fd17989e200dcb6c5d543a",
    ),
    (
        "table8",
        "c7769c67c524da3673cb529246486b21d6e3749aacea03929fb6f952c29675ad",
        "de1a857fb25f1354c8125625ebb80c9c11a6baf8f38e6c3fa459f5dafb06c977",
    ),
    (
        "table9",
        "530200ca2285ab00392f744741ee837321e4cd09b9eb170def48bce6b2a1a91d",
        "4af40e1423c66080df6a9f60958b40b1b199626e76e3650a04d34059c5c57154",
    ),
    (
        "ablation",
        "5813f8c660965416d5a5698b7581769dcca71bdf1b5fcb1e4c035a642c32273a",
        "15316168a178a9c840bce636ce5690c6dd304397613d666bd22491551dc44e0a",
    ),
    (
        "paging",
        "788fc9d6ae5b8df7cc299d3a6ec274d28d6cad6175c3a9627ae0c90c28de7c54",
        "c981ca8fb8541ea7cd2b4e55d6be3cce0bcfc2bf323edefbe6016028b9c5957f",
    ),
    (
        "estimate",
        "56f7f1455b33e557acd6b8754db9756130793ab5eb4f48fdda01f718b19071dc",
        "944c4705aef1f3889cdd379e1668b85c62633e2cf3ce2398aee8fbf2f20473ff",
    ),
    (
        "variability",
        "b3fc7882efe83c0c84ac6b7b23b266a44fbc648fa7bfb465a93d687ac2c5e836",
        "c96da5a638125c0b1794b52a6526884becdf6794605cab7a8818b1240664427f",
    ),
    (
        "assoc",
        "43b2ae65a42c490eda5434cca24c3bea132ef2194ffbce2786f4e11e9b3ed1e6",
        "f5d36e9ec585ace14a3b3bf8d36e217ceca73f476da81d82f76b1952f46e3731",
    ),
    (
        "minprob",
        "dc9c3ce8379ede8d820714d2a18b0d92348b2bf7117a39d0b1760cab9931793a",
        "e83d0e292e0cbaf523f934e89dc624f0f12b69fdd58e89c03cdcc48c2d0c7270",
    ),
    (
        "static",
        "2477a065617eed8ecd0861d236c18642edf97f88ab20d8169961f76e335c777f",
        "5fe1b4654fc3f18c7eef22b16f9160b96749d2699b22008637250d77a6033e7f",
    ),
    (
        "score",
        "5555c26bdd82796ac54fb0410d9d210367b23f9e471fc8cc8d3c099a09054f4c",
        "e51cd26ca475b54b7c215a824c283d8f016f05da830f549bb9735728318b08fa",
    ),
];

/// Lower-case hex SHA-256 of `text`.
#[must_use]
pub fn sha256_hex(text: &str) -> String {
    impact_store::sha::sha256(text.as_bytes())
        .iter()
        .map(|b| format!("{b:02x}"))
        .collect()
}
